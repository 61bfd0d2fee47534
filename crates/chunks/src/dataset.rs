//! Chunked datasets and their builder.

use crate::chunk::{Chunk, Span};
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// A chunked dataset as hosted by a repository.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// Stable identifier (used by the replica catalog).
    pub id: String,
    /// Generator/application family ("kmeans-points", "cfd-field", ...).
    pub kind: String,
    /// Dataset scale: physical bytes = `scale` × logical bytes. Running
    /// the experiments at `scale = 0.01` keeps real computation tractable
    /// while disk, network, and metered compute are charged at nominal
    /// (paper-sized) volume.
    pub scale: f64,
    /// The chunks, densely numbered from zero.
    pub chunks: Vec<Chunk>,
}

impl Dataset {
    /// Total logical (nominal) size in bytes — the `s` of the prediction
    /// model.
    pub fn logical_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.logical_bytes).sum()
    }

    /// Total physical payload bytes actually held in memory.
    pub fn physical_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.physical_bytes() as u64).sum()
    }

    /// Total owned elements across chunks.
    pub fn elements(&self) -> u64 {
        self.chunks.iter().map(|c| c.elements).sum()
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The work-inflation factor applied to metered computation so that
    /// virtual compute time corresponds to the nominal dataset size
    /// (`1/scale`).
    pub fn work_inflation(&self) -> f64 {
        1.0 / self.scale
    }

    /// Repackage the dataset into `num_chunks` chunks of (near-)equal
    /// element counts, preserving element order. Only element-stream
    /// datasets can be re-chunked — halo-partitioned grids (chunks with
    /// spans) would lose their overlap structure. Used by chunk-size
    /// sensitivity experiments.
    pub fn rechunk(&self, num_chunks: usize) -> Dataset {
        assert!(num_chunks >= 1);
        assert!(
            self.chunks.iter().all(|c| c.span.is_none()),
            "cannot re-chunk a halo-partitioned dataset"
        );
        let total_elements = self.elements();
        assert!(
            num_chunks as u64 <= total_elements,
            "cannot make {num_chunks} chunks from {total_elements} elements"
        );
        // Element stride in bytes must be uniform across chunks.
        let stride = self.chunks[0].physical_bytes() as u64 / self.chunks[0].elements;
        for c in &self.chunks {
            assert_eq!(
                c.physical_bytes() as u64,
                stride * c.elements,
                "non-uniform element stride; cannot re-chunk"
            );
        }
        let mut bytes = Vec::with_capacity((total_elements * stride) as usize);
        for c in &self.chunks {
            bytes.extend_from_slice(&c.payload);
        }
        let mut builder = DatasetBuilder::new(&self.id, &self.kind, self.scale);
        for i in 0..num_chunks as u64 {
            let lo = i * total_elements / num_chunks as u64;
            let hi = (i + 1) * total_elements / num_chunks as u64;
            let payload =
                Bytes::copy_from_slice(&bytes[(lo * stride) as usize..(hi * stride) as usize]);
            builder.push_chunk(payload, hi - lo, None);
        }
        builder.build()
    }
}

/// Incrementally assembles a [`Dataset`].
pub struct DatasetBuilder {
    id: String,
    kind: String,
    scale: f64,
    chunks: Vec<Chunk>,
}

impl DatasetBuilder {
    /// Start a dataset with the given identifier, kind, and scale
    /// (`0 < scale <= 1`).
    pub fn new(id: &str, kind: &str, scale: f64) -> DatasetBuilder {
        assert!(scale > 0.0 && scale <= 1.0, "dataset scale must be in (0, 1], got {scale}");
        DatasetBuilder { id: id.into(), kind: kind.into(), scale, chunks: Vec::new() }
    }

    /// Append a chunk. `elements` counts owned elements only; the chunk's
    /// logical size is its physical size inflated by `1/scale`.
    pub fn push_chunk(&mut self, payload: Bytes, elements: u64, span: Option<Span>) -> &mut Self {
        let id = u32::try_from(self.chunks.len()).expect("too many chunks");
        let logical = (payload.len() as f64 / self.scale).round() as u64;
        self.chunks.push(Chunk { id, payload, elements, logical_bytes: logical, span });
        self
    }

    /// Finish the dataset. Panics if no chunks were added — an empty
    /// dataset cannot be partitioned across data nodes.
    pub fn build(self) -> Dataset {
        assert!(!self.chunks.is_empty(), "dataset {} has no chunks", self.id);
        Dataset { id: self.id, kind: self.kind, scale: self.scale, chunks: self.chunks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_f32s;

    fn payload(n: usize) -> Bytes {
        encode_f32s(&vec![1.0f32; n])
    }

    #[test]
    fn builder_numbers_chunks_densely() {
        let mut b = DatasetBuilder::new("d", "test", 1.0);
        b.push_chunk(payload(4), 4, None);
        b.push_chunk(payload(4), 4, None);
        let ds = b.build();
        assert_eq!(ds.chunks[0].id, 0);
        assert_eq!(ds.chunks[1].id, 1);
        assert_eq!(ds.num_chunks(), 2);
        assert_eq!(ds.elements(), 8);
    }

    #[test]
    fn scale_inflates_logical_size() {
        let mut b = DatasetBuilder::new("d", "test", 0.01);
        b.push_chunk(payload(100), 100, None); // 400 physical bytes
        let ds = b.build();
        assert_eq!(ds.physical_bytes(), 400);
        assert_eq!(ds.logical_bytes(), 40_000);
        assert!((ds.work_inflation() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn full_scale_dataset_has_equal_sizes() {
        let mut b = DatasetBuilder::new("d", "test", 1.0);
        b.push_chunk(payload(10), 10, None);
        let ds = b.build();
        assert_eq!(ds.physical_bytes(), ds.logical_bytes());
    }

    #[test]
    #[should_panic(expected = "has no chunks")]
    fn empty_dataset_rejected() {
        DatasetBuilder::new("d", "test", 1.0).build();
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn zero_scale_rejected() {
        DatasetBuilder::new("d", "test", 0.0);
    }

    #[test]
    fn rechunk_preserves_elements_and_bytes() {
        let mut b = DatasetBuilder::new("d", "test", 0.5);
        for i in 0..4 {
            let vals: Vec<f32> = (0..25).map(|j| (i * 25 + j) as f32).collect();
            b.push_chunk(encode_f32s(&vals), 25, None);
        }
        let ds = b.build();
        let re = ds.rechunk(7);
        assert_eq!(re.num_chunks(), 7);
        assert_eq!(re.elements(), ds.elements());
        assert_eq!(re.physical_bytes(), ds.physical_bytes());
        assert_eq!(re.logical_bytes(), ds.logical_bytes());
        // Element order preserved: reassemble and compare.
        let orig: Vec<u8> = ds.chunks.iter().flat_map(|c| c.payload.to_vec()).collect();
        let back: Vec<u8> = re.chunks.iter().flat_map(|c| c.payload.to_vec()).collect();
        assert_eq!(orig, back);
        // Balance to within one element.
        let (mn, mx) = (
            re.chunks.iter().map(|c| c.elements).min().unwrap(),
            re.chunks.iter().map(|c| c.elements).max().unwrap(),
        );
        assert!(mx - mn <= 1);
    }

    #[test]
    #[should_panic(expected = "halo-partitioned")]
    fn rechunk_rejects_halo_datasets() {
        let mut b = DatasetBuilder::new("d", "test", 1.0);
        b.push_chunk(
            encode_f32s(&[1.0; 8]),
            8,
            Some(crate::chunk::Span { begin: 0, end: 2, halo_before: 0, halo_after: 0 }),
        );
        b.build().rechunk(2);
    }
}
