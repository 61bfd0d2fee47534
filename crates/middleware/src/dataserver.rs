//! The data server: chunk retrieval at the repository.
//!
//! Every on-line data node reads its chunks from local disk. Disks stream
//! at `machine.disk_bw`, pay `machine.disk_seek` per chunk, and the
//! site's storage backplane caps the aggregate rate across concurrently
//! reading nodes — the source of the sub-linear retrieval scaling the
//! paper observes past four data nodes.

use fg_cluster::RepositorySite;
use fg_sim::{FairShareSim, Flow, ResourceId, SimDuration, SimTime};

/// Time from the first silent fetch against a crashed data node to
/// declaring it dead and reassigning its chunks to surviving replica
/// holders: a 2 s fetch timeout, then three retries backing off 500 ms,
/// 1 s and 2 s, each followed by another timeout —
/// 2 + (0.5 + 2) + (1 + 2) + (2 + 2) = 11.5 s. Timeouts against several
/// dead nodes run concurrently, so the delay is paid once per detection
/// round, not per node.
pub const DETECTION_DELAY: SimDuration = SimDuration::from_millis(11_500);

/// Per-node read times for one pass: `(data node index, time)` for every
/// node with a nonzero share. The phase makespan is the maximum entry;
/// the per-node breakdown feeds trace attribution.
pub fn retrieval_times(
    repo: &RepositorySite,
    per_node_bytes: &[u64],
    per_node_chunks: &[usize],
) -> Vec<(usize, SimDuration)> {
    assert_eq!(per_node_bytes.len(), per_node_chunks.len());
    let reading: Vec<usize> =
        (0..per_node_bytes.len()).filter(|&d| per_node_bytes[d] > 0).collect();
    if reading.is_empty() {
        return Vec::new();
    }
    let sim = FairShareSim::new(vec![repo.backplane_bw]);
    let flows: Vec<Flow> = reading
        .iter()
        .map(|&d| Flow {
            arrival: SimTime::ZERO,
            demand: per_node_bytes[d] as f64,
            rate_cap: repo.machine.disk_bw,
            resources: vec![ResourceId(0)],
        })
        .collect();
    let outcomes = sim.run(&flows);
    reading
        .iter()
        .zip(outcomes.iter())
        .map(|(&d, o)| {
            let seeks = repo.machine.disk_seek * per_node_chunks[d] as u64;
            (d, o.finish.saturating_since(SimTime::ZERO) + seeks)
        })
        .collect()
}

/// Virtual time for the repository to read all chunks of one pass.
///
/// `per_node_bytes[d]` / `per_node_chunks[d]` describe data node `d`'s
/// share (logical bytes). Returns the makespan across nodes.
pub fn retrieval_makespan(
    repo: &RepositorySite,
    per_node_bytes: &[u64],
    per_node_chunks: &[usize],
) -> SimDuration {
    retrieval_times(repo, per_node_bytes, per_node_chunks)
        .into_iter()
        .map(|(_, t)| t)
        .max()
        .unwrap_or(SimDuration::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fg_cluster::MachineSpec;

    fn repo(disk_bw: f64, backplane: f64, seek_us: u64) -> RepositorySite {
        RepositorySite {
            name: "r".into(),
            machine: MachineSpec {
                disk_bw,
                disk_seek: SimDuration::from_micros(seek_us),
                ..MachineSpec::pentium_700()
            },
            max_nodes: 16,
            backplane_bw: backplane,
        }
    }

    #[test]
    fn single_node_reads_at_disk_speed() {
        let r = repo(100.0, 1000.0, 0);
        let t = retrieval_makespan(&r, &[1000], &[1]);
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn seeks_add_per_chunk() {
        let r = repo(100.0, 1000.0, 1000); // 1 ms per chunk
        let t = retrieval_makespan(&r, &[1000], &[10]);
        assert!((t.as_secs_f64() - 10.01).abs() < 1e-9);
    }

    #[test]
    fn below_backplane_nodes_scale_linearly() {
        let r = repo(100.0, 1000.0, 0);
        let one = retrieval_makespan(&r, &[1000], &[1]);
        let four = retrieval_makespan(&r, &[250; 4], &[1; 4]);
        assert!((one.as_secs_f64() / four.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn backplane_caps_aggregate_rate() {
        // 8 nodes at 100 B/s each want 800 aggregate, but the backplane
        // sustains 400: phase takes bytes_total / 400.
        let r = repo(100.0, 400.0, 0);
        let t = retrieval_makespan(&r, &[100; 8], &[1; 8]);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn empty_nodes_are_ignored() {
        let r = repo(100.0, 1000.0, 0);
        let t = retrieval_makespan(&r, &[1000, 0], &[1, 0]);
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn all_empty_is_zero() {
        let r = repo(100.0, 1000.0, 0);
        assert_eq!(retrieval_makespan(&r, &[0, 0], &[0, 0]), SimDuration::ZERO);
    }

    #[test]
    fn makespan_is_slowest_node() {
        let r = repo(100.0, 1000.0, 0);
        let t = retrieval_makespan(&r, &[100, 1000], &[1, 1]);
        assert!((t.as_secs_f64() - 10.0).abs() < 1e-9);
    }
}
