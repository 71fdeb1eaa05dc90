//! Offline stand-in for the `crossbeam` crate.
//!
//! Only the [`channel`] module is provided — an unbounded MPSC channel
//! backed by `std::sync::mpsc` (whose implementation is itself derived
//! from crossbeam's since Rust 1.67, so the semantics match).

pub mod channel {
    //! Mirror of `crossbeam::channel` (unbounded flavour only).

    pub use std::sync::mpsc::{RecvError, RecvTimeoutError, SendError, TryRecvError};

    /// Mirror of `crossbeam::channel::unbounded`.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = std::sync::mpsc::channel();
        (Sender(tx), Receiver(std::sync::Mutex::new(rx)))
    }

    /// Sending half; cloneable, one per producer.
    pub struct Sender<T>(std::sync::mpsc::Sender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg)
        }
    }

    /// Receiving half. Unlike `std::sync::mpsc::Receiver`, crossbeam's
    /// receiver is `Sync` (receive-side sharing is allowed), and code in
    /// this workspace relies on that — e.g. a Typhon rank context moved
    /// into a rayon pool via `install` must be `Sync`. The `std`
    /// receiver is wrapped in a mutex to provide the same guarantee; the
    /// lock is uncontended in practice (one logical consumer per rank).
    pub struct Receiver<T>(std::sync::Mutex<std::sync::mpsc::Receiver<T>>);

    impl<T> Receiver<T> {
        /// Blocking receive. Waits in bounded slices, releasing the
        /// internal lock between them, so a concurrent `try_recv` on
        /// another thread keeps crossbeam's non-blocking contract
        /// (worst case it waits one slice, never until a message
        /// arrives for the blocked receiver).
        pub fn recv(&self) -> Result<T, RecvError> {
            use std::sync::mpsc::RecvTimeoutError;
            loop {
                let guard = self.0.lock().expect("receiver poisoned");
                match guard.recv_timeout(std::time::Duration::from_millis(1)) {
                    Ok(v) => return Ok(v),
                    Err(RecvTimeoutError::Disconnected) => return Err(RecvError),
                    Err(RecvTimeoutError::Timeout) => {
                        drop(guard);
                        std::thread::yield_now();
                    }
                }
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.lock().expect("receiver poisoned").try_recv()
        }

        /// Blocking receive with a deadline, same slicing discipline as
        /// [`Receiver::recv`]: the internal lock is released between
        /// bounded waits so concurrent `try_recv` calls stay prompt.
        /// Returns `Err(Timeout)` once `timeout` has elapsed without a
        /// message, `Err(Disconnected)` when every sender is gone.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            loop {
                let guard = self.0.lock().expect("receiver poisoned");
                match guard.recv_timeout(std::time::Duration::from_millis(1)) {
                    Ok(v) => return Ok(v),
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(RecvTimeoutError::Disconnected)
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        drop(guard);
                        if std::time::Instant::now() >= deadline {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use std::sync::Arc;
        use std::time::Duration;

        #[test]
        fn send_recv_roundtrip() {
            let (tx, rx) = super::unbounded();
            let tx2 = tx.clone();
            std::thread::spawn(move || tx2.send(41).unwrap());
            tx.send(1).unwrap();
            assert_eq!(rx.recv().unwrap() + rx.recv().unwrap(), 42);
        }

        #[test]
        fn recv_timeout_bounds_the_wait() {
            let (tx, rx) = super::unbounded::<u32>();
            let start = std::time::Instant::now();
            let r = rx.recv_timeout(Duration::from_millis(20));
            assert!(r.is_err(), "nothing was sent");
            let waited = start.elapsed();
            assert!(waited >= Duration::from_millis(15), "returned early");
            assert!(waited < Duration::from_secs(5), "wait was unbounded");
            tx.send(3).unwrap();
            assert_eq!(rx.recv_timeout(Duration::from_millis(20)).unwrap(), 3);
        }

        #[test]
        fn try_recv_does_not_block_behind_a_blocked_recv() {
            let (tx, rx) = super::unbounded::<u32>();
            let rx = Arc::new(rx);
            // Park a thread in a blocking recv on the empty channel.
            let (started_tx, started) = std::sync::mpsc::channel();
            let rx2 = Arc::clone(&rx);
            let blocked = std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                rx2.recv()
            });
            started.recv().unwrap();
            // try_recv from another thread must come back with Empty on
            // its own: the message that ends the blocked recv is sent
            // only once every probe has reported. A probe waiting behind
            // that recv would never report, and the (generous, liveness
            // only) timeout below fails the test instead of hanging it.
            let (probed_tx, probed) = std::sync::mpsc::channel();
            let rx3 = Arc::clone(&rx);
            let prober = std::thread::spawn(move || {
                for _ in 0..100 {
                    probed_tx.send(rx3.try_recv()).unwrap();
                    std::thread::yield_now();
                }
            });
            for probe in 0..100 {
                let r = probed
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("try_recv {probe} blocked behind recv"));
                assert_eq!(r, Err(super::TryRecvError::Empty));
            }
            prober.join().unwrap();
            tx.send(7).unwrap();
            assert_eq!(blocked.join().unwrap().unwrap(), 7);
        }
    }
}
