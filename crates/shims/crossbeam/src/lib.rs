//! Offline stand-in for the exact `crossbeam` API subset this workspace
//! uses: `channel::{unbounded, Sender, Receiver, RecvTimeoutError,
//! TryRecvError}` and
//! `thread::scope` with crossbeam's closure signature (the spawn closure
//! receives a throwaway argument). Everything is delegated to the
//! standard library — `std::sync::mpsc` and `std::thread::scope` cover
//! the runtime's needs (single consumer per channel, scoped borrows of
//! the problem and config).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Multi-producer single-consumer channels (std-backed).
pub mod channel {
    pub use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};

    /// An unbounded channel; `std::sync::mpsc::channel` is already
    /// unbounded and its `Sender` is clonable.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        std::sync::mpsc::channel()
    }
}

/// Scoped threads (std-backed).
pub mod thread {
    /// Wrapper over [`std::thread::Scope`] reproducing crossbeam's spawn
    /// signature, where the closure receives a scope argument (callers in
    /// this workspace ignore it, so a unit placeholder is passed).
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; the closure's argument is a
        /// placeholder for crossbeam's nested-scope handle.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(()) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            self.inner.spawn(move || f(()))
        }
    }

    /// Runs `f` with a scope in which borrowing threads can be spawned;
    /// all spawned threads are joined before this returns. Unlike
    /// crossbeam, a panicking child propagates the panic here instead of
    /// surfacing it in the returned `Result` — callers `.expect()` the
    /// result either way.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn channel_round_trip_with_timeout() {
        let (tx, rx) = super::channel::unbounded::<u32>();
        tx.send(5).unwrap();
        assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(10)), Ok(5));
        assert!(matches!(
            rx.recv_timeout(std::time::Duration::from_millis(1)),
            Err(super::channel::RecvTimeoutError::Timeout)
        ));
    }

    #[test]
    fn scoped_threads_borrow_and_join() {
        let data = vec![1u64, 2, 3];
        let data = &data;
        let mut results = Vec::new();
        super::thread::scope(|scope| {
            let handles: Vec<_> = (0..3).map(|i| scope.spawn(move |_| data[i] * 10)).collect();
            for h in handles {
                results.push(h.join().unwrap());
            }
        })
        .unwrap();
        assert_eq!(results, vec![10, 20, 30]);
    }
}
