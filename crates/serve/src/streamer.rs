//! Turning violations into `VIO_CHUNK` frames: [`VioStreamer`] streams an
//! `UPDATE`'s `ΔVio` *during* expansion, [`stream_violations`] streams a
//! finished set (`QUERY`).

use crate::error::ProtocolError;
use crate::protocol::{frame, Side, VioChunk, VIO_CHUNK_LEN};
use crate::reactor::ConnIo;
use ngd_detect::VioSide;
use ngd_match::Violation;
use std::sync::Mutex;
use std::time::Instant;

/// Nanoseconds from accepting an `UPDATE` to handing its first violation
/// to the wire — the latency win of streaming `ΔVio` *during* expansion.
static FIRST_VIO_NS: ngd_obs::LazyHistogram = ngd_obs::LazyHistogram::new("serve.first_vio.ns");

/// Stream a finished violation set as bounded `VIO_CHUNK` frames, encoding
/// each chunk straight from the borrowed set (no per-violation clones).
pub(crate) fn stream_violations<'v>(
    sink: &ConnIo,
    side: Side,
    violations: impl Iterator<Item = &'v Violation>,
) -> Result<u64, ProtocolError> {
    let all: Vec<&Violation> = violations.collect();
    for chunk in all.chunks(VIO_CHUNK_LEN) {
        sink.send(frame::VIO_CHUNK, &VioChunk::encode_refs(side, chunk))?;
    }
    Ok(all.len() as u64)
}

/// Server-side half of streaming ΔVio *during* expansion: the
/// violation-sink callback the detect run invokes from any of its worker
/// threads.  The first violation flushes immediately — first-violation
/// latency is the point — then full [`VIO_CHUNK_LEN`] chunks, leftovers at
/// [`VioStreamer::finish`].  A send failure (client gone) is remembered
/// and later offers are dropped: the detect run completes undisturbed, and
/// the worker tears the session down afterwards.
pub(crate) struct VioStreamer<'a> {
    io: &'a ConnIo,
    started: Instant,
    state: Mutex<StreamerState>,
}

/// Per-side state lives in slot [`side_index`].
#[derive(Default)]
struct StreamerState {
    pending: [Vec<Violation>; 2],
    totals: [u64; 2],
    sent_any: bool,
    error: Option<ProtocolError>,
}

/// The wire side of each slot.
const WIRE_SIDES: [Side; 2] = [Side::Added, Side::Removed];

fn side_index(side: VioSide) -> usize {
    match side {
        VioSide::Added => 0,
        VioSide::Removed => 1,
    }
}

impl<'a> VioStreamer<'a> {
    pub(crate) fn new(io: &'a ConnIo) -> VioStreamer<'a> {
        VioStreamer {
            io,
            started: Instant::now(),
            state: Mutex::new(StreamerState::default()),
        }
    }

    /// The `VioSink` callback.  Blocking here (a full write queue) blocks
    /// the offering detect worker — and, via this lock, this session's
    /// other detect workers — which is the intended per-session
    /// back-pressure.
    pub(crate) fn offer(&self, side: VioSide, violation: &Violation) {
        let mut state = self.state.lock().expect("streamer lock");
        if state.error.is_some() {
            return;
        }
        let i = side_index(side);
        state.pending[i].push(violation.clone());
        state.totals[i] += 1;
        if !state.sent_any || state.pending[i].len() >= VIO_CHUNK_LEN {
            if !state.sent_any {
                FIRST_VIO_NS.record_duration(self.started.elapsed());
            }
            state.sent_any = true;
            self.flush_side(&mut state, i);
        }
    }

    fn flush_side(&self, state: &mut StreamerState, i: usize) {
        let pending = std::mem::take(&mut state.pending[i]);
        if pending.is_empty() {
            return;
        }
        let refs: Vec<&Violation> = pending.iter().collect();
        let payload = VioChunk::encode_refs(WIRE_SIDES[i], &refs);
        if let Err(e) = self.io.send(frame::VIO_CHUNK, &payload) {
            state.error = Some(e);
        }
    }

    /// Flush leftovers (added side first) and return
    /// `(added_total, removed_total)`, or the first send error if the
    /// client died mid-stream.
    pub(crate) fn finish(self) -> Result<(u64, u64), ProtocolError> {
        let mut state = self.state.lock().expect("streamer lock");
        for i in 0..WIRE_SIDES.len() {
            if state.error.is_none() {
                self.flush_side(&mut state, i);
            }
        }
        match state.error.take() {
            Some(e) => Err(e),
            None => Ok((state.totals[0], state.totals[1])),
        }
    }
}
