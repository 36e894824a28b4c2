//! The TCP front-end: `serve` binds a listener and feeds submissions
//! into a [`RunService`]; `submit_over_tcp` is the matching client.
//!
//! One request per connection: the client writes a [`Message::Submit`]
//! (or [`Message::Shutdown`]), reads the admission decision, and — if
//! it asked to wait — reads the terminal [`Message::Final`]. Plain
//! blocking sockets and a thread per connection: the session
//! *execution* concurrency is bounded by the service's worker pool,
//! not by connection count, so a thread parked in `wait` costs a stack
//! and nothing else.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use osnt_error::OsntError;

use crate::service::{RunService, ServiceConfig};
use crate::session::{Admission, SessionRecord, SessionSpec};
use crate::wire::{read_frame, write_frame, Message};

/// Run the service behind a TCP listener until a client sends
/// [`Message::Shutdown`]. Binds `addr` (use port 0 for an ephemeral
/// port), prints `listening on <addr>` to stdout so callers can
/// scrape the bound address, then accepts until shut down. Returns
/// the service's final [`RunService`] for post-run accounting.
pub fn serve(addr: &str, cfg: ServiceConfig) -> Result<RunService, OsntError> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| OsntError::config("service listener", format!("bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| OsntError::config("service listener", e.to_string()))?;
    println!("listening on {local}");
    std::io::stdout().flush().ok();
    serve_listener(listener, cfg)
}

/// [`serve`] over a listener the caller already bound (tests bind port
/// 0 themselves to learn the address race-free).
pub fn serve_listener(listener: TcpListener, cfg: ServiceConfig) -> Result<RunService, OsntError> {
    let service = Arc::new(RunService::start(cfg)?);
    serve_on(listener, &service)?;
    Arc::try_unwrap(service)
        .map_err(|_| OsntError::config("service listener", "connection thread leaked"))
}

/// The accept loop of [`serve_listener`] over a service the caller
/// started, and can therefore [`RunService::pause`], resume and inspect
/// while clients connect. Returns after a [`Message::Shutdown`], once
/// every connection thread has ended and in-flight sessions have
/// drained.
pub fn serve_on(listener: TcpListener, service: &Arc<RunService>) -> Result<(), OsntError> {
    let stop = Arc::new(AtomicBool::new(false));
    // Poll-accept so the shutdown flag is observed without a signal
    // handler: 5 ms of accept latency nobody can measure.
    listener
        .set_nonblocking(true)
        .map_err(|e| OsntError::config("service listener", e.to_string()))?;
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let stop = Arc::clone(&stop);
                conns.push(std::thread::spawn(move || {
                    // A connection error affects that client only.
                    let _ = handle_connection(stream, &service, &stop);
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => {
                return Err(OsntError::config(
                    "service listener",
                    format!("accept: {e}"),
                ))
            }
        }
    }
    for c in conns {
        let _ = c.join();
    }
    // Let in-flight sessions finish before tearing the pool down.
    service.drain();
    Ok(())
}

fn handle_connection(
    mut stream: TcpStream,
    service: &RunService,
    stop: &AtomicBool,
) -> Result<(), OsntError> {
    let msg = match read_frame(
        &mut stream
            .try_clone()
            .map_err(|e| OsntError::decode("service frame", format!("clone stream: {e}")))?,
    )? {
        Some(m) => m,
        None => return Ok(()), // connected and hung up
    };
    match msg {
        Message::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            write_frame(&mut stream, &Message::ShutdownOk)
        }
        Message::Submit { spec, wait } => match service.submit(spec) {
            Ok(Admission::Admitted { session }) => {
                write_frame(&mut stream, &Message::Admitted { session })?;
                if wait {
                    let rec = service.wait(session)?;
                    write_frame(
                        &mut stream,
                        &Message::final_from(
                            session,
                            &rec.outcome,
                            rec.attempts,
                            rec.report.as_deref(),
                        ),
                    )?;
                }
                Ok(())
            }
            Ok(Admission::Rejected { retry_after }) => {
                write_frame(&mut stream, &Message::Rejected { retry_after })
            }
            Err(e) => write_frame(
                &mut stream,
                &Message::Error {
                    message: e.to_string(),
                },
            ),
        },
        other => write_frame(
            &mut stream,
            &Message::Error {
                message: format!("unexpected request: {other:?}"),
            },
        ),
    }
}

/// What a TCP submission came back with.
#[derive(Debug)]
pub enum SubmitReply {
    /// Admitted; `record` is `Some` iff the submission waited.
    Admitted {
        /// The assigned session id.
        session: u64,
        /// Terminal record (only when `wait` was set).
        record: Option<SessionRecord>,
    },
    /// Rejected with the server's resubmission hint.
    Rejected {
        /// Suggested delay before resubmitting.
        retry_after: Duration,
    },
}

/// Submit `spec` to a serving `addr`; with `wait`, block until the
/// session is terminal and return its record.
pub fn submit_over_tcp<A: ToSocketAddrs>(
    addr: A,
    spec: SessionSpec,
    wait: bool,
) -> Result<SubmitReply, OsntError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Message::Submit { spec, wait })?;
    match expect_frame(&mut stream)? {
        Message::Admitted { session } => {
            let record = if wait {
                match expect_frame(&mut stream)? {
                    Message::Final {
                        session: sid,
                        class,
                        reason,
                        attempts,
                        report,
                    } => Some(SessionRecord {
                        id: sid,
                        tenant: String::new(), // the client knows its tenant
                        priority: 0,
                        outcome: match class.as_str() {
                            "completed" => crate::session::SessionOutcome::Completed,
                            "shed" => crate::session::SessionOutcome::Shed { reason },
                            _ => crate::session::SessionOutcome::Failed { reason },
                        },
                        attempts,
                        report: (!report.is_empty()).then_some(report),
                    }),
                    other => {
                        return Err(OsntError::decode(
                            "service frame",
                            format!("expected Final, got {other:?}"),
                        ))
                    }
                }
            } else {
                None
            };
            Ok(SubmitReply::Admitted { session, record })
        }
        Message::Rejected { retry_after } => Ok(SubmitReply::Rejected { retry_after }),
        Message::Error { message } => Err(OsntError::config("service submit", message)),
        other => Err(OsntError::decode(
            "service frame",
            format!("expected an admission decision, got {other:?}"),
        )),
    }
}

/// Ask a serving `addr` to shut down (idempotent from the caller's
/// view: a dead server is already shut down).
pub fn shutdown_over_tcp<A: ToSocketAddrs>(addr: A) -> Result<(), OsntError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Message::Shutdown)?;
    match expect_frame(&mut stream)? {
        Message::ShutdownOk => Ok(()),
        other => Err(OsntError::decode(
            "service frame",
            format!("expected ShutdownOk, got {other:?}"),
        )),
    }
}

fn connect<A: ToSocketAddrs>(addr: A) -> Result<TcpStream, OsntError> {
    let addrs: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| OsntError::config("service submit", format!("resolve: {e}")))?
        .collect();
    let first = addrs
        .first()
        .ok_or_else(|| OsntError::config("service submit", "address resolved to nothing"))?;
    TcpStream::connect(first)
        .map_err(|e| OsntError::config("service submit", format!("connect {first}: {e}")))
}

fn expect_frame(stream: &mut TcpStream) -> Result<Message, OsntError> {
    read_frame(stream)?
        .ok_or_else(|| OsntError::decode("service frame", "server hung up mid-conversation"))
}
