//! The daemon engine shared by `specrepaird serve` and `specrepaird
//! route`: a blocking acceptor thread, a bounded admission queue and a
//! fixed worker pool over `std::net`, generic over the app that routes
//! requests.
//!
//! Load shedding happens at admission: when the queue is full the acceptor
//! answers `503` with `Retry-After` itself and never hands the connection
//! to a worker, so overload degrades into fast rejections instead of
//! unbounded latency. Shutdown (via `POST /shutdown` or a signal file) is
//! graceful — the acceptor stops admitting, workers drain what was already
//! queued, then everything joins.
//!
//! The acceptor blocks in `accept`, so a new connection is taken the
//! moment it arrives. [`Admission::begin_drain`] wakes it with one
//! loopback connection to the listener. Idle workers check the signal
//! file each time their 100 ms wait for work runs out, so a daemon whose
//! workers never idle notices the file once the load lets up.

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::http::{read_request, Request, RequestError, Response};
use crate::metrics::ServerMetrics;

/// How long a worker waits for the next request on an idle keep-alive
/// connection before closing it.
const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(2);

/// How long an idle worker waits for a queued connection before it checks
/// the shutdown signal file.
const IDLE_WAIT: Duration = Duration::from_millis(100);

/// Pause after a failed `accept` (say, out of file descriptors), so the
/// acceptor cannot spin on an error that persists.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(5);

/// Connect timeout of the drain's wake-up connection. Loopback connects
/// land at once; the timeout only bounds a listener that is already gone.
const WAKE_TIMEOUT: Duration = Duration::from_millis(200);

/// The admission machinery every engine-driven daemon embeds: the bounded
/// connection queue, the drain flag and the optional shutdown signal file.
pub(crate) struct Admission {
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cond: Condvar,
    queue_capacity: usize,
    draining: AtomicBool,
    shutdown_file: Option<PathBuf>,
    /// Where the drain connects to wake the acceptor: the listener's
    /// address, on loopback when it is bound to every interface.
    wake_addr: SocketAddr,
}

impl Admission {
    pub(crate) fn new(
        queue_capacity: usize,
        shutdown_file: Option<PathBuf>,
        listener_addr: SocketAddr,
    ) -> Admission {
        let mut wake_addr = listener_addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Admission {
            queue: Mutex::new(VecDeque::new()),
            queue_cond: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            draining: AtomicBool::new(false),
            shutdown_file,
            wake_addr,
        }
    }

    /// Initiates graceful shutdown (idempotent): stop admitting, wake
    /// every worker so the drain check runs even on an empty queue, and
    /// wake the acceptor out of `accept` with one loopback connection,
    /// which it drops. The connect is best effort: a listener that is
    /// already closed needs no waking.
    pub(crate) fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue_cond.notify_all();
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The next queued connection, or `None` once draining has emptied the
    /// queue. An idle wait that runs out checks the shutdown signal file.
    fn next_connection(&self, metrics: &ServerMetrics) -> Option<TcpStream> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(stream) = queue.pop_front() {
                metrics.queue_depth_add(-1);
                return Some(stream);
            }
            if self.is_draining() {
                return None;
            }
            let (guard, wait) = self.queue_cond.wait_timeout(queue, IDLE_WAIT).unwrap();
            queue = guard;
            // `begin_drain` takes no lock, so it is safe under the queue's.
            if wait.timed_out() && self.shutdown_file.as_ref().is_some_and(|p| p.exists()) {
                self.begin_drain();
            }
        }
    }
}

/// What an app plugs into the engine: its admission state, its metrics
/// registry (the engine records sheds and queue depth there) and the
/// request router.
pub(crate) trait HttpApp: Send + Sync + 'static {
    fn admission(&self) -> &Admission;
    fn metrics(&self) -> &ServerMetrics;
    fn route(self: &Arc<Self>, request: &Request) -> Response;
}

/// Spawns the acceptor and `workers` worker threads over the listener.
/// Returns the handles; joining them after [`Admission::begin_drain`]
/// completes a graceful shutdown.
pub(crate) fn spawn_threads<A: HttpApp>(
    listener: TcpListener,
    workers: usize,
    thread_prefix: &str,
    app: &Arc<A>,
) -> (JoinHandle<()>, Vec<JoinHandle<()>>) {
    let workers = (0..workers.max(1))
        .map(|i| {
            let app = Arc::clone(app);
            std::thread::Builder::new()
                .name(format!("{thread_prefix}-worker-{i}"))
                .spawn(move || worker_loop(&app))
                .expect("spawning a worker thread")
        })
        .collect();
    let acceptor = {
        let app = Arc::clone(app);
        std::thread::Builder::new()
            .name(format!("{thread_prefix}-acceptor"))
            .spawn(move || accept_loop(&listener, &app))
            .expect("spawning the acceptor thread")
    };
    (acceptor, workers)
}

fn accept_loop<A: HttpApp>(listener: &TcpListener, app: &Arc<A>) {
    let admission = app.admission();
    loop {
        let accepted = listener.accept();
        // Once draining, whatever `accept` returned (the drain's wake-up
        // connection, most likely) is dropped unserved.
        if admission.is_draining() {
            break;
        }
        match accepted {
            Ok((stream, _)) => admit(app, stream),
            Err(_) => std::thread::sleep(ACCEPT_ERROR_BACKOFF),
        }
    }
    admission.queue_cond.notify_all();
}

/// Enqueues one accepted connection, or sheds it with `503` when the
/// admission queue is full.
fn admit<A: HttpApp>(app: &Arc<A>, stream: TcpStream) {
    let admission = app.admission();
    {
        let mut queue = admission.queue.lock().unwrap();
        if queue.len() < admission.queue_capacity {
            queue.push_back(stream);
            app.metrics().queue_depth_add(1);
            admission.queue_cond.notify_one();
            return;
        }
    }
    app.metrics().record_shed();
    shed(stream);
}

/// Writes the `503` shed response. The request is read (best-effort, short
/// timeout) before responding so well-behaved clients see the response
/// rather than a reset from unread data.
fn shed(stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let _ = read_request(&mut reader);
    let mut writer = stream;
    let _ = Response::error(503, "admission queue full, retry shortly")
        .with_header("retry-after", "1")
        .write_to(&mut writer, false);
}

fn worker_loop<A: HttpApp>(app: &Arc<A>) {
    while let Some(stream) = app.admission().next_connection(app.metrics()) {
        app.metrics().inflight_add(1);
        handle_connection(app, stream);
        app.metrics().inflight_add(-1);
    }
}

/// Serves one connection: a keep-alive loop of request → route → response.
fn handle_connection<A: HttpApp>(app: &Arc<A>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(KEEP_ALIVE_IDLE));
    let _ = stream.set_nodelay(true);
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = stream;
    loop {
        match read_request(&mut reader) {
            Ok(request) => {
                let response = app.route(&request);
                // Draining closes connections after the in-flight response.
                let keep_alive = request.keep_alive && !app.admission().is_draining();
                if response.write_to(&mut writer, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            Err(RequestError::Closed) | Err(RequestError::Io(_)) => return,
            Err(RequestError::Malformed(msg)) => {
                app.metrics().record_request("http", 400);
                let _ = Response::error(400, &msg).write_to(&mut writer, false);
                return;
            }
            Err(RequestError::TooLarge(n)) => {
                app.metrics().record_request("http", 413);
                let _ = Response::error(413, &format!("body of {n} bytes exceeds the limit"))
                    .write_to(&mut writer, false);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// An app that answers every request with an empty object.
    struct Idle {
        admission: Admission,
        metrics: ServerMetrics,
    }

    impl HttpApp for Idle {
        fn admission(&self) -> &Admission {
            &self.admission
        }

        fn metrics(&self) -> &ServerMetrics {
            &self.metrics
        }

        fn route(self: &Arc<Self>, _request: &Request) -> Response {
            Response::json(200, "{}")
        }
    }

    #[test]
    fn drain_wakes_an_acceptor_bound_to_every_interface() {
        let listener = TcpListener::bind("0.0.0.0:0").expect("binding an ephemeral port");
        let app = Arc::new(Idle {
            admission: Admission::new(1, None, listener.local_addr().unwrap()),
            metrics: ServerMetrics::new(),
        });
        let (acceptor, workers) = spawn_threads(listener, 1, "engine-test", &app);
        app.admission.begin_drain();
        let (done, joined) = mpsc::channel();
        std::thread::spawn(move || {
            acceptor.join().unwrap();
            for worker in workers {
                worker.join().unwrap();
            }
            done.send(()).unwrap();
        });
        joined
            .recv_timeout(Duration::from_secs(10))
            .expect("the drain woke the acceptor out of accept");
    }
}
