//! `Server::start` returns only after the core thread's first publish:
//! a query sent the instant a client connects is answered from a live
//! snapshot, never with "session already drained".

use fg_bench::figures::sched_models;
use fg_sched::{GridSpec, Policy, Scheduler};
use fg_serve::{ServeClient, Server};

#[test]
fn queries_sent_right_after_connect_are_never_refused() {
    let grid = GridSpec::demo(sched_models());
    let app = grid.apps[0].0.clone();
    for i in 0..200 {
        let server = Server::start(Scheduler::new(grid.clone(), Policy::Fcfs));
        let mut client = ServeClient::connect(&server);
        let stats = client.stats();
        let quote = client.quote(&app, 64 << 20, 2.0);
        drop(client);
        server.shutdown();
        assert!(stats.is_ok(), "server {i}: stats refused: {stats:?}");
        assert!(quote.is_ok(), "server {i}: quote refused: {quote:?}");
    }
}
