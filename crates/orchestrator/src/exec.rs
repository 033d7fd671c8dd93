//! The deterministic sharded executor: advances [`DeviceShard`]s in
//! parallel between virtual-time barriers.
//!
//! One barrier = every event at one instant of the virtual clock, in
//! `(time, seq)` order. The engine hoists the *deferred batch compute* of
//! the barrier's hoist-safe lease completions (see
//! `engine::hoist_batch` for the safety argument) into [`ShardTask`]s;
//! this executor routes each task to the [`DeviceShard`] owning its
//! device, drains every shard's inbox concurrently on a persistent worker
//! pool, and hands the completed tasks back sorted by the originating
//! event's batch position. The engine then replays the barrier's events
//! sequentially — all queue, ledger, telemetry, and trace bookkeeping
//! stays on the engine thread — splicing the precomputed results in where
//! the sequential engine would have computed them inline. Result streams
//! are therefore byte-identical at every shard count; only wall-clock
//! time changes.
//!
//! With a single shard (the default) no threads are ever spawned and
//! `run_barrier` degenerates to the inline sequential path.

use crate::driver::Runner;
use crate::shard::{CompletedTask, DeviceShard, ShardTask};
use std::sync::mpsc;
use std::thread::JoinHandle;

// Compile-time proof that a job's runner may travel to shard workers; holds
// because every evaluator behind its lanes is `CostEvaluator: Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Runner>()
};

/// Environment variable overriding `OrchestratorConfig::shards`: CI runs
/// the full test suite a second time under `QONCORD_SHARDS=4` to enforce
/// determinism across worker counts continuously.
pub(crate) const SHARDS_ENV: &str = "QONCORD_SHARDS";

/// Executor over `n` device-group shards with a persistent worker pool
/// (spawned only when `n > 1`).
pub(crate) struct ShardedExecutor {
    shards: Vec<DeviceShard>,
    /// Per-shard task channels; dropping them shuts the pool down.
    workers: Vec<mpsc::Sender<Vec<ShardTask>>>,
    done_rx: Option<mpsc::Receiver<Vec<CompletedTask>>>,
    handles: Vec<JoinHandle<()>>,
}

impl ShardedExecutor {
    /// Creates an executor over `shard_count.max(1)` device groups,
    /// spawning one worker thread per shard when there is more than one.
    pub(crate) fn new(shard_count: usize) -> Self {
        let n = shard_count.max(1);
        let shards = (0..n).map(|id| DeviceShard::new(id, n)).collect();
        let mut workers = Vec::new();
        let mut handles = Vec::new();
        let mut done_rx = None;
        if n > 1 {
            let (done_tx, rx) = mpsc::channel::<Vec<CompletedTask>>();
            done_rx = Some(rx);
            for id in 0..n {
                let (task_tx, task_rx) = mpsc::channel::<Vec<ShardTask>>();
                let done_tx = done_tx.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("qoncord-shard-{id}"))
                    .spawn(move || {
                        while let Ok(inbox) = task_rx.recv() {
                            if done_tx.send(DeviceShard::run(inbox)).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn shard worker");
                workers.push(task_tx);
                handles.push(handle);
            }
        }
        ShardedExecutor {
            shards,
            workers,
            done_rx,
            handles,
        }
    }

    /// The configured shard count (or, from the engine's view, the barrier
    /// override: resolves [`SHARDS_ENV`] over `configured`).
    pub(crate) fn effective_shards(configured: usize) -> usize {
        std::env::var(SHARDS_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .unwrap_or(configured)
            .max(1)
    }

    /// Whether barriers actually fan out to worker threads.
    pub(crate) fn is_parallel(&self) -> bool {
        !self.handles.is_empty()
    }

    /// Runs one barrier's hoisted tasks — in parallel across the shards
    /// owning their devices where possible — and returns them merged back
    /// into the barrier's event order (ascending `pos`).
    ///
    /// Single-task barriers run inline: there is no parallelism to win,
    /// only channel latency to pay.
    pub(crate) fn run_barrier(&mut self, tasks: Vec<ShardTask>) -> Vec<CompletedTask> {
        if tasks.is_empty() {
            return Vec::new();
        }
        if !self.is_parallel() || tasks.len() < 2 {
            // `tasks` arrives in batch order, which `DeviceShard::run`
            // preserves — already merged.
            return DeviceShard::run(tasks);
        }
        let _prof = qoncord_prof::span("engine::barrier");
        let n = self.shards.len();
        for task in tasks {
            self.shards[task.device % n].push(task);
        }
        let mut outstanding = 0;
        for (id, shard) in self.shards.iter_mut().enumerate() {
            let inbox = shard.take_inbox();
            if inbox.is_empty() {
                continue;
            }
            self.workers[id].send(inbox).expect("shard worker alive");
            outstanding += 1;
        }
        let rx = self
            .done_rx
            .as_ref()
            .expect("parallel executor keeps a result channel");
        let mut done = Vec::new();
        for _ in 0..outstanding {
            done.extend(rx.recv().expect("shard worker alive"));
        }
        // The merge: shard completion order is nondeterministic, the
        // originating event order is not.
        done.sort_unstable_by_key(|t| t.pos);
        done
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        // Closing the task channels ends every worker's recv loop.
        self.workers.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_spawns_no_workers() {
        let exec = ShardedExecutor::new(1);
        assert!(!exec.is_parallel());
        assert_eq!(exec.shards.len(), 1);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        assert!(!ShardedExecutor::new(0).is_parallel());
    }

    #[test]
    fn multi_shard_pool_starts_and_shuts_down() {
        let mut exec = ShardedExecutor::new(4);
        assert!(exec.is_parallel());
        assert!(exec.run_barrier(Vec::new()).is_empty());
        drop(exec); // must not hang: channels close, workers join
    }
}
