//! A socket-backed session must leave no `dmac-workerd` process behind
//! once its transport is shut down.
//!
//! The check reads this process's child list, so the file holds exactly
//! one test: an integration-test file is a process of its own, and with
//! no other test spawning workers in it a non-empty list is a leak.

use dmac::apps::PageRank;
use dmac::cluster::SocketOptions;
use dmac::core::Session;

/// Launch 4 real workers, run PageRank on them, shut down cleanly; any
/// process still parented to us afterwards is a leaked worker.
#[test]
fn shutdown_leaves_no_child_process() {
    if !cfg!(target_os = "linux") {
        return; // the child list is read from /proc
    }
    let block = 16;
    let mut s = Session::builder()
        .workers(4)
        .local_threads(2)
        .block_size(block)
        .seed(11)
        .socket_transport(SocketOptions::default())
        .try_build()
        .expect("4 dmac-workerd processes must launch");
    assert!(s.transport_is_physical());
    let nodes = 96;
    let g = dmac::data::powerlaw_graph(nodes, 900, block, 5);
    let pagerank = PageRank {
        nodes,
        link_sparsity: 900.0 / (nodes as f64 * nodes as f64),
        damping: 0.85,
        iterations: 4,
    };
    pagerank.run(&mut s, &g).expect("pagerank run");
    // The instrument sees the live workers, so an empty list means gone.
    assert_eq!(child_processes().len(), 4);
    s.shutdown_transport()
        .expect("every worker must exit on request");
    let children = child_processes();
    assert!(
        children.is_empty(),
        "leaked child processes after shutdown: {children:?}"
    );
}

/// Pids of every process parented to any thread of this one.
fn child_processes() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("task list")
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("children")).ok())
        .flat_map(|list| {
            list.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        })
        .collect()
}
