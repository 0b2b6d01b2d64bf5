//! A real-network runtime for the sans-IO Damani–Garg [`Engine`]:
//! one OS thread per process by default — or several processes pinned to
//! a fixed thread pool ([`RunConfig::node_threads`]) — TCP sockets
//! between them.
//!
//! The discrete-event simulator (`dg-simnet`) and this crate drive the
//! *identical* engine — this crate depends on `dg-core` with default
//! features off, so nothing simulator-shaped can leak into the protocol.
//! Everything runtime-specific lives here:
//!
//! * **Transport** — a full TCP mesh on loopback. Frames are
//!   length-prefixed: `[u32 LE frame length][u16 LE sender id][u32 LE
//!   FNV-1a checksum][wire bytes]`, where the wire bytes are exactly
//!   the [`dg_core::wirecodec`] encoding (so the piggyback sizes
//!   measured in simulation are the bytes on the real wire). The
//!   checksum turns in-flight corruption into *detected* message loss —
//!   which retransmission repairs — instead of a silently altered
//!   message; truncated or nonsense length prefixes drop the connection
//!   before they can wedge a reader.
//! * **Time** — microseconds since cluster launch, read from the OS
//!   monotonic clock and passed into the engine as `Input::*::now`. The
//!   engine never reads a clock itself.
//! * **Timers** — a per-node binary heap driving `Input::Tick`.
//! * **Idle edges** — the event loop drains everything queued without
//!   blocking, then tells each engine that handled something
//!   `Input::Idle` before it waits again. That is the engine's cue to
//!   flush, answer stability queries and commit on demand, so commit
//!   latency is message delays; the flush and gossip timers remain as
//!   the upper bound for a loop that never runs dry.
//! * **Faults** — [`Cluster::crash`] delivers `Input::Crash`, parks
//!   inbound frames other than stability gossip and queries for the
//!   downtime (the protocol does not assume
//!   reliable channels, but parking mirrors the simulator's semantics
//!   and keeps TCP connections alive across a process-level restart),
//!   then delivers `Input::Restart` and replays the parked frames.
//! * **Quiescence** — activity-based: the cluster is quiet when no
//!   recovery work is pending anywhere and no traffic other than
//!   stability gossip and queries (`Wire::is_background`) has moved for
//!   several consecutive probes.
//!
//! After [`Cluster::shutdown`] the engines come back to the caller, so
//! tests run the *same* consistency oracle (`dg_harness::oracle::
//! check_views`) against a real-network run as against a simulated one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;

use std::collections::BinaryHeap;
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use dg_core::wirecodec::{
    decode_app_delta, decode_wire, encode_app_delta, encode_wire_into, is_app_delta_frame,
    is_background_frame, Payload,
};
use dg_core::{
    Application, DgConfig, Effect, EffectSink, Engine, EngineView, Input, ProtocolEngine,
    StorageFault, Wire,
};
use dg_ftvc::{Ftvc, ProcessId};

pub use faults::{FaultHandle, FaultStats, LinkRule};

/// Runtime knobs for a [`Cluster`].
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Interval between quiescence probes.
    pub probe_interval: Duration,
    /// Consecutive quiet probes required to declare quiescence.
    pub stable_probes: u32,
    /// Pin the `n` nodes to a fixed pool of this many OS threads (node
    /// `i` runs on thread `i % t`), instead of the default one thread
    /// per node (`None`). Engines stay single-threaded either way; the
    /// option exists so an n=32 cluster on a 4-core box runs 4 event
    /// loops of 8 nodes each rather than 32 thrashing threads.
    pub node_threads: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            probe_interval: Duration::from_millis(120),
            stable_probes: 3,
            node_threads: None,
        }
    }
}

/// What a node reports when probed (see [`Cluster::statuses`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStatus {
    /// Monotone count of protocol-relevant events (frames in and sends
    /// out that are not background stability traffic, crashes).
    pub activity: u64,
    /// `true` while crashed (between `Input::Crash` and `Input::Restart`).
    pub down: bool,
    /// Messages postponed awaiting recovery tokens.
    pub postponed: usize,
    /// Own recovery tokens not yet acknowledged by every peer.
    pub pending_tokens: usize,
    /// Outputs emitted but not yet provably stable.
    pub pending_outputs: usize,
    /// Frames this node failed to put on the wire (connect or write
    /// errors after one reconnect attempt). The protocol tolerates the
    /// loss, but a happy-path run should report zero — the smoke test
    /// asserts exactly that.
    pub frames_dropped: u64,
    /// Inbound frames this node discarded as malformed: truncated or
    /// out-of-range length prefixes, frames cut mid-body, or bodies that
    /// failed wire decoding. Each costs at worst one dropped connection
    /// (the sender reconnects) — never a panic, never a wedged node.
    pub frames_corrupt: u64,
    /// Why the most recent corrupt frame was rejected, for diagnostics
    /// (`None` until the first rejection).
    pub last_corrupt_reason: Option<&'static str>,
    /// Requests admitted through this node's service front door. The
    /// runtime itself leaves the service counters zero; a serving layer
    /// (`dg-service`) merges its always-on metrics into the statuses it
    /// reports.
    pub svc_admitted: u64,
    /// Requests refused with a retryable shed error by the front's
    /// admission gate.
    pub svc_shed: u64,
    /// Requests that entered the engine sharing a front-door batch with
    /// at least one other request.
    pub svc_batched: u64,
    /// Power-of-two histogram of front-door submit-batch sizes: bucket
    /// `i` counts batches of size `[2^i, 2^(i+1))`, saturating into the
    /// last bucket.
    pub svc_batch_hist: [u64; 8],
    /// Requests admitted but not yet answered across this front's
    /// connections.
    pub svc_in_flight: u64,
    /// Connections dropped for exceeding the buffered-response budget
    /// (slow consumers).
    pub svc_slow_disconnects: u64,
}

enum Event<C> {
    /// A framed message arrived from `from`.
    Frame { from: ProcessId, bytes: Vec<u8> },
    /// An inbound connection produced a frame the reader rejected: a
    /// malformed length prefix, a truncation mid-frame, or a body
    /// failing its checksum. Counted, never fatal.
    Mangled { reason: &'static str },
    /// Inject an external command: the engine logs it and sends the
    /// payload to `to` with full recovery tracking (the service layer's
    /// front door).
    AppSend { to: ProcessId, payload: C },
    /// Inject a batch of external commands admitted by one front-door
    /// wakeup. The engine steps each command in turn, but the resulting
    /// wire frames are coalesced in the mesh's pooled buffers and
    /// flushed once — one write per peer for the whole batch.
    AppSendBatch { sends: Vec<(ProcessId, C)> },
    /// Inject a crash; the node restarts itself after `downtime_us`.
    Crash { downtime_us: u64 },
    /// Inject a storage fault into the engine.
    Fault(StorageFault),
    /// Report current status.
    Probe { reply: mpsc::Sender<NodeStatus> },
    /// Finish: the node thread returns its engine.
    Stop,
}

/// A batch of application outputs the engine just committed — i.e. made
/// dependency-stable, so no future rollback can retract them. Streamed
/// over the channel passed in [`ClusterOptions::commits`]; the service
/// layer answers clients from exactly this stream.
#[derive(Debug, Clone)]
pub struct CommittedBatch<M> {
    /// Index of the node that committed.
    pub node: usize,
    /// The committed outputs, in commit order.
    pub outputs: Vec<M>,
}

/// Microseconds elapsed since `start`, saturating into `u64`.
fn now_us(start: &Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Frame body bytes that precede the wire payload: sender id (2) plus
/// body checksum (4).
const FRAME_OVERHEAD: usize = 6;

/// Delta App frames sent per channel between mandatory full frames. One
/// lost delta desyncs its channel's floor until the next full frame, so
/// this bounds the detected-loss blast radius to 15 frames while keeping
/// the full O(n) encoding off 15/16ths of application traffic.
const FULL_FRAME_EVERY: u32 = 16;

/// FNV-1a over the wire bytes of one frame — the integrity check that
/// turns a flipped bit on the wire into detected message loss.
fn frame_checksum(wire_bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in wire_bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

// ---------------------------------------------------------------------
// Outbound mesh
// ---------------------------------------------------------------------

/// Lazily connected outbound TCP connections to every peer, with pooled
/// per-peer frame buffers for batched (coalesced) writes.
struct Mesh {
    me: ProcessId,
    addrs: Vec<SocketAddr>,
    conns: Vec<Option<TcpStream>>,
    /// Per-peer pending bytes: whole frames (length prefix and sender id
    /// inline) queued by [`Mesh::queue`] awaiting [`Mesh::flush`]. The
    /// buffers are drained in place, so their capacity is reused across
    /// batches — no per-frame allocation.
    pending: Vec<Vec<u8>>,
    /// Number of frames currently queued per peer (for loss accounting).
    pending_frames: Vec<u32>,
    /// Frames that never made it onto the wire: connect or write errors
    /// that survived the one reconnect retry.
    frames_dropped: u64,
}

impl Mesh {
    fn new(me: ProcessId, addrs: Vec<SocketAddr>) -> Mesh {
        let conns = addrs.iter().map(|_| None).collect();
        let pending = addrs.iter().map(|_| Vec::new()).collect();
        let pending_frames = vec![0; addrs.len()];
        Mesh {
            me,
            addrs,
            conns,
            pending,
            pending_frames,
            frames_dropped: 0,
        }
    }

    fn connect(&mut self, to: ProcessId) -> Option<&mut TcpStream> {
        let slot = &mut self.conns[to.index()];
        if slot.is_none() {
            // Listeners are bound before any node thread starts, so a
            // handful of quick retries covers transient refusals.
            for _ in 0..5 {
                match TcpStream::connect(self.addrs[to.index()]) {
                    Ok(s) => {
                        let _ = s.set_nodelay(true);
                        *slot = Some(s);
                        break;
                    }
                    Err(_) => thread::sleep(Duration::from_millis(10)),
                }
            }
        }
        slot.as_mut()
    }

    /// The 10-byte frame header: `[u32 LE frame length][u16 LE sender]
    /// [u32 LE checksum]`, where the length covers the sender id, the
    /// checksum, and the wire bytes.
    fn header(&self, wire_bytes: &[u8]) -> [u8; 10] {
        let mut header = [0u8; 10];
        header[..4].copy_from_slice(&((FRAME_OVERHEAD + wire_bytes.len()) as u32).to_le_bytes());
        header[4..6].copy_from_slice(&self.me.0.to_le_bytes());
        header[6..].copy_from_slice(&frame_checksum(wire_bytes).to_le_bytes());
        header
    }

    /// Send one frame immediately, writing the stack-built header and the
    /// payload with a single vectored write — no frame buffer at all.
    /// Connection failures drop (and count) the frame — the protocol
    /// tolerates message loss (enable retransmission in the `DgConfig`).
    fn send(&mut self, to: ProcessId, wire_bytes: &[u8]) {
        let header = self.header(wire_bytes);
        for attempt in 0..2 {
            let Some(conn) = self.connect(to) else { break };
            match write_frame_vectored(conn, &header, wire_bytes) {
                Ok(()) => return,
                Err(_) if attempt == 0 => self.conns[to.index()] = None, // reconnect once
                Err(_) => break,
            }
        }
        self.frames_dropped += 1;
    }

    /// Queue one frame for `to`; nothing touches the socket until
    /// [`Mesh::flush`]. Used when one effect batch produces several
    /// frames for the same peer, which then coalesce into one write.
    fn queue(&mut self, to: ProcessId, wire_bytes: &[u8]) {
        let header = self.header(wire_bytes);
        let buf = &mut self.pending[to.index()];
        buf.extend_from_slice(&header);
        buf.extend_from_slice(wire_bytes);
        self.pending_frames[to.index()] += 1;
    }

    /// Write every peer's queued frames, one `write_all` per peer (the
    /// frames were laid out contiguously by [`Mesh::queue`]). Buffers
    /// keep their capacity for the next batch.
    fn flush(&mut self) {
        for i in 0..self.pending.len() {
            if self.pending[i].is_empty() {
                continue;
            }
            let frames = self.pending_frames[i];
            self.pending_frames[i] = 0;
            // Take the buffer out so `connect` can borrow `self`.
            let mut buf = std::mem::take(&mut self.pending[i]);
            let mut sent = false;
            for attempt in 0..2 {
                let Some(conn) = self.connect(ProcessId(i as u16)) else {
                    break;
                };
                match conn.write_all(&buf) {
                    Ok(()) => {
                        sent = true;
                        break;
                    }
                    Err(_) if attempt == 0 => self.conns[i] = None, // reconnect once
                    Err(_) => break,
                }
            }
            if !sent {
                self.frames_dropped += u64::from(frames);
            }
            buf.clear();
            self.pending[i] = buf;
        }
    }
}

/// Write `header` then `body` as one frame, starting with a vectored
/// write so the 10-byte header does not cost its own syscall (or a
/// copy into a joined buffer). Falls back to plain writes to finish any
/// partially written tail.
fn write_frame_vectored(
    conn: &mut TcpStream,
    header: &[u8; 10],
    body: &[u8],
) -> std::io::Result<()> {
    let total = header.len() + body.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < header.len() {
            conn.write_vectored(&[IoSlice::new(&header[written..]), IoSlice::new(body)])?
        } else {
            conn.write(&body[written - header.len()..])?
        };
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        written += n;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Inbound side
// ---------------------------------------------------------------------

/// Accept loop: one reader thread per inbound connection, each pushing
/// decoded frames into the owning thread's event channel, tagged with
/// the destination node's index.
fn acceptor<C: Send + 'static>(
    listener: TcpListener,
    node: usize,
    tx: mpsc::Sender<(usize, Event<C>)>,
    stop: Arc<AtomicBool>,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let tx = tx.clone();
        thread::spawn(move || reader(stream, node, &tx));
    }
}

/// Outcome of trying to fill a buffer from a stream.
enum Fill {
    /// The buffer is full.
    Done,
    /// The stream ended exactly on a frame boundary — a normal close
    /// (peer teardown, or the shutdown poke that unblocks acceptors).
    CleanEof,
    /// The stream ended or errored mid-buffer: a truncated frame.
    Truncated,
}

/// Read exactly `buf.len()` bytes, reporting *where* the stream ended:
/// EOF before the first byte is a clean close, EOF after it is a
/// truncation the connection owner should hear about.
fn read_full(stream: &mut impl Read, buf: &mut [u8]) -> Fill {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Fill::CleanEof,
            Ok(0) => return Fill::Truncated,
            Ok(k) => filled += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Fill::Truncated,
        }
    }
    Fill::Done
}

fn reader<C>(stream: TcpStream, node: usize, tx: &mpsc::Sender<(usize, Event<C>)>) {
    // Frames are two small reads each (length, then body); buffering
    // turns them into one syscall per kernel batch instead of two per
    // frame.
    let mut stream = BufReader::new(stream);
    let mangled = |reason| {
        let _ = tx.send((node, Event::Mangled { reason }));
    };
    loop {
        let mut len_buf = [0u8; 4];
        match read_full(&mut stream, &mut len_buf) {
            Fill::Done => {}
            Fill::CleanEof => return, // peer closed between frames
            Fill::Truncated => return mangled("length prefix truncated"),
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if !(FRAME_OVERHEAD..=1 << 24).contains(&len) {
            // A length outside the protocol's envelope means the stream
            // is garbage from here on: drop the connection before the
            // bogus length can size an allocation.
            return mangled("length prefix out of range");
        }
        let mut frame = vec![0u8; len];
        match read_full(&mut stream, &mut frame) {
            Fill::Done => {}
            Fill::CleanEof | Fill::Truncated => return mangled("frame body truncated"),
        }
        let from = ProcessId(u16::from_le_bytes([frame[0], frame[1]]));
        let checksum = u32::from_le_bytes([frame[2], frame[3], frame[4], frame[5]]);
        let bytes = frame.split_off(FRAME_OVERHEAD);
        if frame_checksum(&bytes) != checksum {
            // The framing itself is intact, so the stream stays usable:
            // count the frame as detected loss and keep reading.
            mangled("checksum mismatch");
            continue;
        }
        if tx.send((node, Event::Frame { from, bytes })).is_err() {
            return; // node thread gone
        }
    }
}

// ---------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------

/// A pending timer: fires at `at` (cluster micros) with `kind`.
/// `seq` breaks ties FIFO.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: u64,
    seq: u64,
    kind: u32,
}

struct Node<A: Application>
where
    A::Msg: Payload,
{
    engine: Engine<A>,
    mesh: Mesh,
    n: usize,
    start: Instant,
    timers: BinaryHeap<std::cmp::Reverse<TimerEntry>>,
    timer_seq: u64,
    down: bool,
    restart_at: Option<u64>,
    parked: Vec<(ProcessId, Vec<u8>)>,
    /// The engine has handled an input since it was last told
    /// [`Input::Idle`]; the next idle edge of the event loop owes it one.
    since_idle: bool,
    activity: u64,
    frames_corrupt: u64,
    last_corrupt_reason: Option<&'static str>,
    has_gossip: bool,
    /// Per-peer floors for v3 delta App frames: `tx_floors[p]` is the
    /// clock of the last App frame this node put on channel `p` (the
    /// floor the next delta frame encodes against); `rx_floors[p]`
    /// mirrors it on the receive side. `None` means the next frame must
    /// travel full. `Resend` frames never touch the floors — they carry
    /// historic clocks. A write error resets the affected floor, and the
    /// embedded clock digest lets the receiver reject any frame decoded
    /// against a stale floor as *detected* loss, which the protocol's
    /// retransmission layer repairs.
    tx_floors: Vec<Option<Ftvc>>,
    rx_floors: Vec<Option<Ftvc>>,
    /// App frames remaining until the next mandatory full frame on each
    /// channel, bounding how long a desynced channel discards deltas.
    tx_full_in: Vec<u32>,
    /// Where committed outputs go, if anyone is listening.
    commit_tx: Option<mpsc::Sender<CommittedBatch<A::Msg>>>,
    /// Reused effect buffer: every engine input lands its effects here
    /// (via `handle_into`), and `run_effects` drains it in place.
    sink: EffectSink<Wire<A::Msg>, A::Msg>,
    /// Reused wire-encoding scratch; cleared (capacity kept) per message.
    wire_scratch: BytesMut,
}

impl<A: Application> Node<A>
where
    A::Msg: Payload,
{
    fn wait_duration(&self) -> Duration {
        let now = now_us(&self.start);
        let deadline = if self.down {
            self.restart_at
        } else {
            self.timers.peek().map(|t| t.0.at)
        };
        let us = deadline
            .map_or(100_000, |d| d.saturating_sub(now))
            .min(100_000);
        Duration::from_micros(us.max(1))
    }

    /// Fire everything that is due: the restart first, then timers —
    /// until `stop` is set, since a handler slower than the timers it
    /// re-arms (sends to peers that already shut down) never runs dry.
    fn pump_due(&mut self, stop: &AtomicBool) {
        let now = now_us(&self.start);
        if self.down {
            if self.restart_at.is_some_and(|at| at <= now) {
                self.restart_at = None;
                self.down = false;
                self.activity += 1;
                self.step(Input::Restart { now });
                // Redeliver frames that arrived during the outage, in
                // arrival order (the simulator parks the same way).
                let parked = std::mem::take(&mut self.parked);
                for (from, bytes) in parked {
                    self.on_frame(from, bytes);
                }
            }
            return;
        }
        while let Some(t) = self.timers.peek() {
            if t.0.at > now_us(&self.start) || stop.load(Ordering::Relaxed) {
                break;
            }
            let t = self.timers.pop().expect("peeked");
            self.step(Input::Tick {
                kind: t.0.kind,
                now: now_us(&self.start),
            });
            if self.down {
                break; // a tick cannot crash us, but stay defensive
            }
        }
    }

    fn on_frame(&mut self, from: ProcessId, bytes: Vec<u8>) {
        if self.down {
            // Stability gossip and queries addressed to a dead process
            // are dropped, not parked: they are repeated anyway, and
            // replayed after the restart they would run ahead of the
            // application frames parked behind them — a frontier frame
            // triggers history GC, which must not reclaim the restarted
            // process's token record before the orphan messages of its
            // dead version, waiting in the same queue, have been judged.
            if !bytes.first().copied().is_some_and(is_background_frame) {
                self.parked.push((from, bytes));
            }
            return;
        }
        let decoded = match bytes.first() {
            Some(&b) if is_app_delta_frame(b) => match &self.rx_floors[from.index()] {
                Some(floor) => decode_app_delta::<A::Msg>(bytes::Bytes::from(bytes), floor),
                // No floor on this channel yet (we restarted, or the
                // peer's first frames raced): detected loss, repaired by
                // retransmission like any other dropped frame.
                None => {
                    self.frames_corrupt += 1;
                    self.last_corrupt_reason = Some("delta frame without floor");
                    return;
                }
            },
            _ => decode_wire::<A::Msg>(bytes::Bytes::from(bytes)),
        };
        let Ok(wire) = decoded else {
            self.frames_corrupt += 1;
            self.last_corrupt_reason = Some("wire decode failed");
            return; // corrupt frame: treat as message loss
        };
        // Every accepted App frame — full or delta — advances this
        // channel's receive floor to its (reconstructed) clock, in
        // lockstep with the sender's `tx_floors` update at encode time.
        if let Wire::App(env) = &wire {
            match &mut self.rx_floors[from.index()] {
                Some(f) => f.clone_from(&env.clock),
                slot => *slot = Some(env.clock.clone()),
            }
        }
        if !wire.is_background() {
            self.activity += 1;
        }
        let now = now_us(&self.start);
        self.step(Input::Deliver { from, wire, now });
    }

    /// Inject an external command. While down, the command is dropped —
    /// the caller (a retrying client) is expected to resubmit, exactly
    /// as it would against a crashed server.
    fn on_app_send(&mut self, to: ProcessId, payload: A::Msg) {
        if self.down {
            return;
        }
        self.activity += 1;
        let now = now_us(&self.start);
        self.step(Input::AppSend { to, payload, now });
    }

    /// Inject a batch of external commands (see [`Event::AppSendBatch`]):
    /// each is a full-tracking engine `AppSend`, but every frame the
    /// batch produces is queued in the mesh's pooled per-peer buffers
    /// and the wire is written once per peer at the end — the batched
    /// front door amortizes one send flush (and one wakeup of each
    /// receiving peer) across the whole batch.
    fn on_app_send_batch(&mut self, sends: Vec<(ProcessId, A::Msg)>) {
        if self.down {
            return;
        }
        self.activity += sends.len() as u64;
        self.since_idle = true;
        let dropped_before = self.mesh.frames_dropped;
        let mut sink = std::mem::take(&mut self.sink);
        for (to, payload) in sends {
            let now = now_us(&self.start);
            self.engine
                .handle_into(Input::AppSend { to, payload, now }, &mut sink);
            self.run_effects_queued(&mut sink);
        }
        self.sink = sink;
        self.mesh.flush();
        if self.mesh.frames_dropped > dropped_before {
            for f in &mut self.tx_floors {
                *f = None;
            }
        }
    }

    fn on_fault(&mut self, fault: StorageFault) {
        // Storage faults only mark state for the next recovery; they are
        // safe to record even while the process is down.
        let mut sink = std::mem::take(&mut self.sink);
        self.engine.handle_into(Input::Fault(fault), &mut sink);
        sink.clear();
        self.sink = sink;
    }

    fn on_crash(&mut self, downtime_us: u64) {
        if self.down {
            return; // already down; ignore overlapping crash
        }
        self.down = true;
        self.activity += 1;
        self.restart_at = Some(now_us(&self.start) + downtime_us.max(1));
        self.timers.clear(); // crash invalidates pending timers
        let mut sink = std::mem::take(&mut self.sink);
        self.engine.handle_into(Input::Crash, &mut sink);
        debug_assert!(sink.is_empty(), "a crashed process acts silently");
        sink.clear();
        self.sink = sink;
    }

    /// Feed one input to the engine and execute the resulting effects,
    /// reusing the node's sink so the handoff allocates nothing.
    fn step(&mut self, input: Input<Wire<A::Msg>, A::Msg>) {
        self.since_idle = true;
        let mut sink = std::mem::take(&mut self.sink);
        self.engine.handle_into(input, &mut sink);
        self.run_effects(&mut sink);
        self.sink = sink;
    }

    /// The event loop ran dry: if the engine handled anything since the
    /// last time, tell it so. This is what lets it flush, answer
    /// stability queries and commit now rather than at the next tick.
    fn idle_edge(&mut self) {
        if !self.since_idle || self.down {
            return;
        }
        let now = now_us(&self.start);
        self.step(Input::Idle { now });
        self.since_idle = false;
    }

    fn on_event(&mut self, event: Event<A::Msg>) {
        match event {
            Event::Frame { from, bytes } => self.on_frame(from, bytes),
            Event::Mangled { reason } => {
                self.frames_corrupt += 1;
                self.last_corrupt_reason = Some(reason);
            }
            Event::AppSend { to, payload } => self.on_app_send(to, payload),
            Event::AppSendBatch { sends } => self.on_app_send_batch(sends),
            Event::Crash { downtime_us } => self.on_crash(downtime_us),
            Event::Fault(fault) => self.on_fault(fault),
            Event::Probe { reply } => {
                let _ = reply.send(self.status());
            }
            Event::Stop => {} // wake-up only; the loop condition exits
        }
    }

    fn run_effects(&mut self, sink: &mut EffectSink<Wire<A::Msg>, A::Msg>) {
        // One wire-producing effect means at most one frame per peer:
        // write each immediately with a vectored (header, payload) write.
        // Several mean a peer may receive multiple frames this batch:
        // queue them in the mesh's pooled buffers and flush once per
        // peer, coalescing the frames into a single write.
        let wire_effects = sink
            .as_slice()
            .iter()
            .filter(|e| matches!(e, Effect::Send { .. } | Effect::Broadcast { .. }))
            .count();
        let coalesce = wire_effects > 1;
        let dropped_before = self.mesh.frames_dropped;
        self.drain_effects(sink, coalesce);
        if coalesce {
            self.mesh.flush();
        }
        // Any frame that failed to reach the wire may have been a delta
        // floor update the peer never saw: drop all transmit floors so
        // the next App frame per channel travels full. Write errors are
        // rare (reconnect already retried once), so the reset is cheap
        // insurance, and the digest check would catch a desync anyway.
        if self.mesh.frames_dropped > dropped_before {
            for f in &mut self.tx_floors {
                *f = None;
            }
        }
    }

    /// Batched-submit variant of [`Node::run_effects`]: always queue
    /// frames in the mesh's per-peer buffers, never flush — the caller
    /// flushes once for the whole batch and does the dropped-frame
    /// floor reset afterwards.
    fn run_effects_queued(&mut self, sink: &mut EffectSink<Wire<A::Msg>, A::Msg>) {
        self.drain_effects(sink, true);
    }

    fn drain_effects(&mut self, sink: &mut EffectSink<Wire<A::Msg>, A::Msg>, coalesce: bool) {
        let now = now_us(&self.start);
        for effect in sink.drain() {
            match effect {
                Effect::Send { to, wire, .. } => {
                    // Tree gossip and stability queries travel as unicast
                    // sends; like the broadcast form below they must not
                    // count as activity or quiescence never comes.
                    if !wire.is_background() {
                        self.activity += 1;
                    }
                    self.encode_unicast(to, &wire);
                    if coalesce {
                        self.mesh.queue(to, self.wire_scratch.as_slice());
                    } else {
                        self.mesh.send(to, self.wire_scratch.as_slice());
                    }
                }
                Effect::Broadcast { wire } => {
                    // Frontier and stable-clock gossip are periodic
                    // background traffic; they must not count as activity
                    // or quiescence never comes.
                    if !wire.is_background() {
                        self.activity += 1;
                    }
                    self.wire_scratch.clear();
                    encode_wire_into(&wire, &mut self.wire_scratch);
                    for p in ProcessId::all(self.n) {
                        if p != self.mesh.me {
                            if coalesce {
                                self.mesh.queue(p, self.wire_scratch.as_slice());
                            } else {
                                self.mesh.send(p, self.wire_scratch.as_slice());
                            }
                        }
                    }
                }
                Effect::SetTimer { delay, kind, .. } => {
                    self.timer_seq += 1;
                    self.timers.push(std::cmp::Reverse(TimerEntry {
                        at: now + delay,
                        seq: self.timer_seq,
                        kind,
                    }));
                }
                Effect::Commit { outputs, .. } => {
                    if let Some(tx) = &self.commit_tx {
                        if !outputs.is_empty() {
                            let _ = tx.send(CommittedBatch {
                                node: self.mesh.me.index(),
                                outputs,
                            });
                        }
                    }
                }
                // Real storage latency is not modeled: the engine already
                // recorded the write in its own stable-storage model, and
                // committed outputs stay readable via the engine.
                Effect::Checkpoint { .. } | Effect::LogWrite { .. } => {}
            }
        }
    }

    /// Encode one unicast wire message into `wire_scratch`. App frames
    /// go out as v3 delta frames against this channel's floor when the
    /// channel has one (with a periodic full frame to bound desync);
    /// everything else uses the full encoding.
    fn encode_unicast(&mut self, to: ProcessId, wire: &Wire<A::Msg>) {
        self.wire_scratch.clear();
        let Wire::App(env) = wire else {
            encode_wire_into(wire, &mut self.wire_scratch);
            return;
        };
        let i = to.index();
        match &mut self.tx_floors[i] {
            Some(floor) if self.tx_full_in[i] > 0 => {
                encode_app_delta(env, floor, &mut self.wire_scratch);
                self.tx_full_in[i] -= 1;
                floor.clone_from(&env.clock);
            }
            slot => {
                encode_wire_into(wire, &mut self.wire_scratch);
                self.tx_full_in[i] = FULL_FRAME_EVERY;
                match slot {
                    Some(f) => f.clone_from(&env.clock),
                    None => *slot = Some(env.clock.clone()),
                }
            }
        }
    }

    fn status(&self) -> NodeStatus {
        NodeStatus {
            activity: self.activity,
            down: self.down,
            postponed: self.engine.postponed_len(),
            pending_tokens: self.engine.pending_token_count(),
            pending_outputs: if self.has_gossip {
                self.engine.pending_outputs()
            } else {
                0 // no commit machinery configured; nothing will drain
            },
            frames_dropped: self.mesh.frames_dropped,
            frames_corrupt: self.frames_corrupt,
            last_corrupt_reason: self.last_corrupt_reason,
            // Service counters belong to the serving layer; the runtime
            // reports zeros and `dg-service` merges its own.
            ..NodeStatus::default()
        }
    }
}

/// Event loop of one OS thread driving `nodes` (a single node in the
/// default configuration, several when [`RunConfig::node_threads`] pins
/// the cluster to a pool). All the nodes' events arrive on one shared
/// channel tagged with the node index.
///
/// The loop is drain-then-idle. It first handles everything already
/// queued without blocking, pumping every node's due timers before each
/// event so co-hosted nodes cannot starve each other of ticks, only delay
/// them by one handler. When the channel runs dry it gives each node
/// that handled something one [`Input::Idle`] — the engine's cue to
/// flush, answer stability queries and commit on demand — and only then
/// blocks until the next event or timer. Batching is therefore
/// self-clocked: an idle cluster commits within a round trip, a busy one
/// amortises one flush, sweep and query round over whatever queued up,
/// and a thread that never runs dry sees no idle edge at all and runs on
/// its timers alone.
///
/// `stop` is the cluster's shutdown flag. [`Event::Stop`] alone is not
/// enough: it queues behind the backlog, and once a sibling thread has
/// exited, sends to its nodes fail slowly (connect retries) while ticks
/// re-arm, so a busy thread might never read that far. The flag is
/// checked before every event; the event only wakes an idle wait.
fn run_shard<A: Application>(
    mut nodes: Vec<(usize, Node<A>)>,
    rx: &mpsc::Receiver<(usize, Event<A::Msg>)>,
    stop: &AtomicBool,
) -> Vec<(usize, Engine<A>)>
where
    A::Msg: Payload,
{
    fn deliver<A: Application>(nodes: &mut [(usize, Node<A>)], idx: usize, event: Event<A::Msg>)
    where
        A::Msg: Payload,
    {
        nodes
            .iter_mut()
            .find(|(i, _)| *i == idx)
            .map(|(_, n)| n)
            .expect("event for a node this thread owns")
            .on_event(event);
    }

    for (_, node) in &mut nodes {
        let now = now_us(&node.start);
        node.step(Input::Start { now });
    }
    'run: while !stop.load(Ordering::Relaxed) {
        while !stop.load(Ordering::Relaxed) {
            for (_, node) in &mut nodes {
                node.pump_due(stop);
            }
            match rx.try_recv() {
                Ok((idx, event)) => deliver(&mut nodes, idx, event),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => break 'run,
            }
        }
        let mut wait = Duration::from_micros(100_000);
        for (_, node) in &mut nodes {
            node.idle_edge();
            wait = wait.min(node.wait_duration());
        }
        match rx.recv_timeout(wait) {
            Ok((idx, event)) => deliver(&mut nodes, idx, event),
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {} // pump_due handles it
        }
    }
    nodes.into_iter().map(|(i, n)| (i, n.engine)).collect()
}

// ---------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------

/// An [`Event`] tagged with the index of the node it is addressed to —
/// what flows on a pool thread's shared channel.
type TaggedEvent<C> = (usize, Event<C>);

/// What one pool thread returns at shutdown: the engines of every node
/// it hosted, tagged with their indices.
type ShardEngines<A> = Vec<(usize, Engine<A>)>;

/// Per-node endpoint: the owning thread's event channel plus this node's
/// index on it.
struct NodeHandle<C> {
    tx: mpsc::Sender<TaggedEvent<C>>,
    idx: usize,
    addr: SocketAddr,
}

/// A detached, clonable sender set for one cluster (see
/// [`Cluster::handles`]): enough to inject application commands from
/// arbitrary threads, nothing more.
pub struct ClusterHandles<C> {
    nodes: Vec<(mpsc::Sender<TaggedEvent<C>>, usize)>,
}

impl<C> Clone for ClusterHandles<C> {
    fn clone(&self) -> ClusterHandles<C> {
        ClusterHandles {
            nodes: self.nodes.clone(),
        }
    }
}

impl<C> ClusterHandles<C> {
    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff there are no processes (never, in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// [`Cluster::app_send`], callable from any thread: hand `payload`
    /// to node `via` as an external command addressed to `to`. Dropped
    /// silently if `via` is down or the cluster is gone.
    pub fn app_send(&self, via: ProcessId, to: ProcessId, payload: C) {
        let (tx, idx) = &self.nodes[via.index()];
        let _ = tx.send((*idx, Event::AppSend { to, payload }));
    }

    /// Batched [`ClusterHandles::app_send`]: hand a whole front-door
    /// batch to node `via` in one event. The node steps every command
    /// and flushes the mesh once, so the batch shares one wakeup, one
    /// coalesced frame per peer, and one send-stamp floor advance.
    /// Dropped silently (whole batch) if `via` is down or the cluster
    /// is gone — exactly the crashed-server contract of `app_send`.
    pub fn app_send_batch(&self, via: ProcessId, sends: Vec<(ProcessId, C)>) {
        if sends.is_empty() {
            return;
        }
        let (tx, idx) = &self.nodes[via.index()];
        let _ = tx.send((*idx, Event::AppSendBatch { sends }));
    }
}

/// Optional launch-time extras beyond [`RunConfig`] (see
/// [`Cluster::launch_opts`]).
pub struct ClusterOptions<M> {
    /// Runtime knobs (probe cadence, thread pinning).
    pub run: RunConfig,
    /// Stream every node's committed output batches to this channel.
    /// `None` (the default) discards them — the engines still retain
    /// committed outputs for post-shutdown inspection either way.
    pub commits: Option<mpsc::Sender<CommittedBatch<M>>>,
    /// Route all inter-node traffic through fault-injection proxies
    /// seeded with this value; steer them via [`Cluster::faults`].
    /// `None` (the default) connects nodes directly.
    pub fault_seed: Option<u64>,
}

impl<M> Default for ClusterOptions<M> {
    fn default() -> ClusterOptions<M> {
        ClusterOptions {
            run: RunConfig::default(),
            commits: None,
            fault_seed: None,
        }
    }
}

/// An `n`-process Damani–Garg system running over real TCP sockets on
/// loopback, one OS thread per process.
///
/// ```no_run
/// use dg_core::{Application, DgConfig, Effects, ProcessId};
/// use dg_netrun::Cluster;
/// use std::time::Duration;
///
/// #[derive(Clone)]
/// struct Noop;
/// impl Application for Noop {
///     type Msg = u64;
///     fn on_start(&mut self, _: ProcessId, _: usize) -> Effects<u64> { Effects::none() }
///     fn on_message(&mut self, _: ProcessId, _: ProcessId, _: &u64, _: usize) -> Effects<u64> {
///         Effects::none()
///     }
/// }
///
/// let cluster = Cluster::launch(4, |_| Noop, DgConfig::base()).unwrap();
/// cluster.crash(ProcessId(2), Duration::from_millis(50));
/// cluster.run_until_quiescent(Duration::from_secs(30));
/// let engines = cluster.shutdown();
/// assert_eq!(engines.len(), 4);
/// ```
pub struct Cluster<A: Application>
where
    A::Msg: Payload,
{
    nodes: Vec<NodeHandle<A::Msg>>,
    threads: Vec<JoinHandle<ShardEngines<A>>>,
    stop: Arc<AtomicBool>,
    run_config: RunConfig,
    faults: Option<FaultHandle>,
    /// Proxy listener addresses, poked at shutdown like the real ones.
    proxy_addrs: Vec<SocketAddr>,
}

impl<A> Cluster<A>
where
    A: Application + Send + 'static,
    A::Msg: Payload + Send,
{
    /// Launch `n` engine-hosting node threads with default runtime knobs.
    ///
    /// # Errors
    ///
    /// Returns any IO error from binding the loopback listeners.
    pub fn launch(
        n: usize,
        make_app: impl Fn(ProcessId) -> A,
        config: DgConfig,
    ) -> std::io::Result<Cluster<A>> {
        Cluster::launch_with(n, make_app, config, RunConfig::default())
    }

    /// Launch with explicit runtime knobs.
    ///
    /// # Errors
    ///
    /// Returns any IO error from binding the loopback listeners.
    pub fn launch_with(
        n: usize,
        make_app: impl Fn(ProcessId) -> A,
        config: DgConfig,
        run_config: RunConfig,
    ) -> std::io::Result<Cluster<A>> {
        Cluster::launch_opts(
            n,
            make_app,
            config,
            ClusterOptions {
                run: run_config,
                ..ClusterOptions::default()
            },
        )
    }

    /// Launch with the full set of options: runtime knobs, a committed-
    /// output stream, and (when [`ClusterOptions::fault_seed`] is set)
    /// fault-injection proxies on every link.
    ///
    /// # Errors
    ///
    /// Returns any IO error from binding the loopback listeners.
    pub fn launch_opts(
        n: usize,
        make_app: impl Fn(ProcessId) -> A,
        config: DgConfig,
        opts: ClusterOptions<A::Msg>,
    ) -> std::io::Result<Cluster<A>> {
        assert!(n >= 1, "a cluster needs at least one process");
        let run_config = opts.run;
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();

        // Bind every listener before any node starts so connects succeed.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<std::io::Result<_>>()?;

        // With fault injection on, outbound connections dial the
        // destination's proxy instead of its real listener; the proxies
        // relay (or mangle) into the real listeners bound above.
        let faults = opts.fault_seed.map(|seed| FaultHandle::new(n, seed));
        let (mesh_addrs, proxy_addrs) = match &faults {
            Some(handle) => {
                let proxies = faults::spawn_proxies(handle, &addrs, &stop)?;
                (proxies.clone(), proxies)
            }
            None => (addrs.clone(), Vec::new()),
        };

        // One event channel per pool thread; node i pins to thread
        // i % t. The default (node_threads: None) is t = n — exactly the
        // old one-thread-per-node behavior.
        let t = run_config.node_threads.unwrap_or(n).clamp(1, n);
        type Channel<C> = (mpsc::Sender<TaggedEvent<C>>, mpsc::Receiver<TaggedEvent<C>>);
        let channels: Vec<Channel<A::Msg>> = (0..t).map(|_| mpsc::channel()).collect();

        let mut nodes = Vec::with_capacity(n);
        let mut shards: Vec<Vec<(usize, Node<A>)>> = (0..t).map(|_| Vec::new()).collect();
        for (i, listener) in listeners.into_iter().enumerate() {
            let me = ProcessId(i as u16);
            let tx = channels[i % t].0.clone();
            thread::spawn({
                let tx = tx.clone();
                let stop = Arc::clone(&stop);
                move || acceptor(listener, i, tx, stop)
            });
            shards[i % t].push((
                i,
                Node {
                    engine: Engine::new(me, n, make_app(me), config),
                    mesh: Mesh::new(me, mesh_addrs.clone()),
                    n,
                    start,
                    timers: BinaryHeap::new(),
                    timer_seq: 0,
                    down: false,
                    restart_at: None,
                    parked: Vec::new(),
                    since_idle: false,
                    activity: 0,
                    frames_corrupt: 0,
                    last_corrupt_reason: None,
                    has_gossip: config.gossip_interval.is_some(),
                    tx_floors: vec![None; n],
                    rx_floors: vec![None; n],
                    tx_full_in: vec![0; n],
                    commit_tx: opts.commits.clone(),
                    sink: EffectSink::new(),
                    wire_scratch: BytesMut::new(),
                },
            ));
            nodes.push(NodeHandle {
                tx,
                idx: i,
                addr: addrs[i],
            });
        }
        let mut threads = Vec::with_capacity(t);
        for (w, (shard, (_, rx))) in shards.into_iter().zip(channels).enumerate() {
            let stop = Arc::clone(&stop);
            threads.push(
                thread::Builder::new()
                    .name(format!("dg-nodes-{w}"))
                    .spawn(move || run_shard(shard, &rx, &stop))?,
            );
        }
        Ok(Cluster {
            nodes,
            threads,
            stop,
            run_config,
            faults,
            proxy_addrs,
        })
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` iff the cluster has no processes (never, after `launch`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The loopback address each node actually listens on. The cluster
    /// always binds ephemeral ports (`127.0.0.1:0`), so parallel
    /// clusters in one test binary never collide; this is how the chosen
    /// ports propagate to anything that wants to talk to a node.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.nodes.iter().map(|node| node.addr).collect()
    }

    /// Crash process `p` now; it recovers on its own after `downtime`.
    pub fn crash(&self, p: ProcessId, downtime: Duration) {
        let downtime_us = u64::try_from(downtime.as_micros()).unwrap_or(u64::MAX);
        let node = &self.nodes[p.index()];
        let _ = node.tx.send((node.idx, Event::Crash { downtime_us }));
    }

    /// Hand `payload` to node `via`'s engine as an external command
    /// addressed to `to` (`Input::AppSend`): logged, clock-tracked, and
    /// replayed like any other event. Dropped silently if `via` is down
    /// — callers are retrying clients by construction.
    pub fn app_send(&self, via: ProcessId, to: ProcessId, payload: A::Msg) {
        let node = &self.nodes[via.index()];
        let _ = node.tx.send((node.idx, Event::AppSend { to, payload }));
    }

    /// Batched [`Cluster::app_send`] (see
    /// [`ClusterHandles::app_send_batch`]).
    pub fn app_send_batch(&self, via: ProcessId, sends: Vec<(ProcessId, A::Msg)>) {
        if sends.is_empty() {
            return;
        }
        let node = &self.nodes[via.index()];
        let _ = node.tx.send((node.idx, Event::AppSendBatch { sends }));
    }

    /// Inject a storage fault into process `p`'s engine.
    pub fn inject_fault(&self, p: ProcessId, fault: StorageFault) {
        let node = &self.nodes[p.index()];
        let _ = node.tx.send((node.idx, Event::Fault(fault)));
    }

    /// A cheap, clonable handle for injecting [`Cluster::app_send`]
    /// commands from threads that cannot borrow the cluster itself —
    /// the service layer's front-door connection threads.
    pub fn handles(&self) -> ClusterHandles<A::Msg> {
        ClusterHandles {
            nodes: self
                .nodes
                .iter()
                .map(|node| (node.tx.clone(), node.idx))
                .collect(),
        }
    }

    /// The fault-injection handle, when the cluster was launched with
    /// [`ClusterOptions::fault_seed`].
    pub fn faults(&self) -> Option<&FaultHandle> {
        self.faults.as_ref()
    }

    /// Probe every node for its current [`NodeStatus`] (best effort: a
    /// node that cannot answer within five seconds reports the default).
    /// Tests use this to assert `frames_dropped == 0` on happy paths.
    pub fn statuses(&self) -> Vec<NodeStatus> {
        self.probe()
    }

    fn probe(&self) -> Vec<NodeStatus> {
        self.nodes
            .iter()
            .map(|node| {
                let (reply_tx, reply_rx) = mpsc::channel();
                let probe = (node.idx, Event::Probe { reply: reply_tx });
                if node.tx.send(probe).is_err() {
                    return NodeStatus::default();
                }
                reply_rx
                    .recv_timeout(Duration::from_secs(5))
                    .unwrap_or_default()
            })
            .collect()
    }

    /// Block until the system is quiescent: everyone up, no postponed
    /// messages, no unacknowledged tokens, no uncommitted outputs, and
    /// no non-gossip traffic across several consecutive probes.
    ///
    /// Returns `true` if quiescence was reached within `timeout`.
    pub fn run_until_quiescent(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut last_activity: Option<u64> = None;
        let mut stable = 0u32;
        while Instant::now() < deadline {
            thread::sleep(self.run_config.probe_interval);
            let statuses = self.probe();
            let quiet = statuses.iter().all(|s| {
                !s.down && s.postponed == 0 && s.pending_tokens == 0 && s.pending_outputs == 0
            });
            let activity: u64 = statuses.iter().map(|s| s.activity).sum();
            if quiet && last_activity == Some(activity) {
                stable += 1;
                if stable >= self.run_config.stable_probes {
                    return true;
                }
            } else {
                stable = 0;
            }
            last_activity = Some(activity);
        }
        false
    }

    /// Stop every node and return the engines for inspection (oracle
    /// checks, digest comparison, output extraction).
    pub fn shutdown(self) -> Vec<Engine<A>> {
        self.stop.store(true, Ordering::Relaxed);
        // One Stop per pool thread; nodes 0..t sit on distinct threads.
        for node in self.nodes.iter().take(self.threads.len()) {
            let _ = node.tx.send((node.idx, Event::Stop));
        }
        // Unblock each acceptor's `incoming()` so its thread exits —
        // proxy acceptors included.
        for node in &self.nodes {
            let _ = TcpStream::connect(node.addr);
        }
        for addr in &self.proxy_addrs {
            let _ = TcpStream::connect(addr);
        }
        let mut engines: Vec<(usize, Engine<A>)> = self
            .threads
            .into_iter()
            .flat_map(|join| join.join().expect("node thread panicked"))
            .collect();
        engines.sort_by_key(|(i, _)| *i);
        engines.into_iter().map(|(_, engine)| engine).collect()
    }
}
