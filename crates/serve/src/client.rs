//! [`ServeClient`] — the typed client side of the wire protocol.
//!
//! One client owns one connection, i.e. one server-side session: updates
//! submitted through it accumulate on the server until [`ServeClient::reset`].
//! Streamed violation chunks can be observed incrementally through the
//! `*_streaming` variants or collected into the same
//! [`DeltaViolations`] / [`ViolationSet`] structures the in-process
//! detectors return — the equivalence tests assert the two are
//! byte-identical.

use crate::addr::{ServeAddr, Stream};
use crate::error::ProtocolError;
use crate::protocol::{
    frame, read_frame, write_frame, DoneResponse, EpochNotice, EpochResponse, ErrorResponse,
    HelloRequest, HelloResponse, MetricsResponse, OkResponse, RulesRequest, Side, StatsResponse,
    UpdateRequest, VioChunk,
};
use ngd_core::RuleSet;
use ngd_graph::BatchUpdate;
use ngd_match::{DeltaViolations, Violation, ViolationSet};
use std::io::BufReader;
use std::time::Duration;

/// A served incremental answer: the reassembled `ΔVio` plus the closing
/// summary (cost ledger, matcher stats, server-side timing).
#[derive(Debug, Clone, PartialEq)]
pub struct ServedDelta {
    /// The violation delta, reassembled from the streamed chunks.
    pub delta: DeltaViolations,
    /// The closing `UPDATE_DONE` summary.
    pub done: DoneResponse,
}

impl ServedDelta {
    /// Server-side wall-clock time of the detection run.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.done.elapsed_nanos)
    }
}

/// A served batch-detection answer.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedQuery {
    /// The full violation set, reassembled from the streamed chunks.
    pub violations: ViolationSet,
    /// The closing `QUERY_DONE` summary.
    pub done: DoneResponse,
}

impl ServedQuery {
    /// Server-side wall-clock time of the detection run.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.done.elapsed_nanos)
    }
}

/// One connection to an `ngd-serve` daemon (= one server-side session).
pub struct ServeClient {
    /// Frames are read through the buffer (a header and a small payload
    /// usually arrive in one `read`) and written straight to the stream
    /// underneath, one `write_all` per frame.
    stream: BufReader<Stream>,
    hello: HelloResponse,
    /// The most recent `EPOCH_SWITCHED` push absorbed from the stream
    /// (the server announces a re-root once, ahead of its next answer).
    last_epoch_switch: Option<EpochNotice>,
    /// How many `EPOCH_SWITCHED` pushes this connection has absorbed —
    /// including ones interleaved *between* `VIO_CHUNK` frames of a
    /// single answer, which a compaction racing an expansion produces.
    epoch_switches_seen: u64,
}

impl ServeClient {
    /// Connect and perform the `HELLO` handshake as `client_name`.
    pub fn connect_as(addr: &ServeAddr, client_name: &str) -> Result<ServeClient, ProtocolError> {
        let stream =
            Stream::connect(addr).map_err(|e| ProtocolError::Io(format!("connect {addr}: {e}")))?;
        let mut client = ServeClient {
            stream: BufReader::new(stream),
            hello: HelloResponse {
                server: String::new(),
                node_count: 0,
                edge_count: 0,
                rule_count: 0,
                diameter: 0,
            },
            last_epoch_switch: None,
            epoch_switches_seen: 0,
        };
        let request = HelloRequest {
            client: client_name.to_string(),
        };
        write_frame(client.stream.get_mut(), frame::HELLO, &request.encode())?;
        let payload = client.expect(frame::HELLO_OK, "HELLO_OK")?;
        client.hello = HelloResponse::decode(&payload)?;
        Ok(client)
    }

    /// Connect with a default client name.
    pub fn connect(addr: &ServeAddr) -> Result<ServeClient, ProtocolError> {
        ServeClient::connect_as(addr, "ngd-serve-client")
    }

    /// Server and snapshot facts from the handshake.
    pub fn server_info(&self) -> &HelloResponse {
        &self.hello
    }

    /// Read one frame; `ERROR` frames become [`ProtocolError::Remote`] and
    /// pushed `EPOCH_SWITCHED` notices are absorbed transparently
    /// (recorded for [`ServeClient::last_epoch_switch`]).
    fn next_frame(&mut self) -> Result<(u32, Vec<u8>), ProtocolError> {
        loop {
            let (kind, payload) = read_frame(&mut self.stream)?;
            if kind == frame::EPOCH_SWITCHED {
                self.last_epoch_switch = Some(EpochNotice::decode(&payload)?);
                self.epoch_switches_seen += 1;
                continue;
            }
            if kind == frame::ERROR {
                let err = ErrorResponse::decode(&payload)?;
                return Err(ProtocolError::Remote {
                    code: err.code,
                    message: err.message,
                });
            }
            return Ok((kind, payload));
        }
    }

    /// The most recent epoch switch the server announced for this session
    /// (set when the session re-rooted onto a newly compacted snapshot).
    pub fn last_epoch_switch(&self) -> Option<&EpochNotice> {
        self.last_epoch_switch.as_ref()
    }

    /// Total `EPOCH_SWITCHED` pushes absorbed on this connection, wherever
    /// they appeared — ahead of an answer or interleaved mid-stream.
    pub fn epoch_switches_seen(&self) -> u64 {
        self.epoch_switches_seen
    }

    /// Read one frame and require a specific kind.
    fn expect(&mut self, kind: u32, what: &'static str) -> Result<Vec<u8>, ProtocolError> {
        let (found, payload) = self.next_frame()?;
        if found != kind {
            return Err(ProtocolError::UnexpectedFrame {
                expected: what,
                found,
            });
        }
        Ok(payload)
    }

    /// Install `sigma` as this session's rule set (compiled server-side).
    pub fn set_rules(&mut self, sigma: &RuleSet) -> Result<String, ProtocolError> {
        self.set_rules_source(&sigma.to_json())
    }

    /// Install a rule set from raw rule-file text (`.ngdl` or JSON — the
    /// server sniffs the format), so a session can swap rules straight
    /// from a file without parsing client-side.
    pub fn set_rules_source(&mut self, source: &str) -> Result<String, ProtocolError> {
        let request = RulesRequest {
            source: source.to_owned(),
        };
        write_frame(self.stream.get_mut(), frame::RULES, &request.encode())?;
        let payload = self.expect(frame::OK, "OK")?;
        Ok(OkResponse::decode(&payload)?.message)
    }

    /// Drain a `VIO_CHUNK*` stream up to its closing `done_kind` frame,
    /// handing every chunk to `on_chunk` as it arrives.
    fn drain_stream(
        &mut self,
        done_kind: u32,
        done_what: &'static str,
        mut on_chunk: impl FnMut(Side, Vec<Violation>),
    ) -> Result<DoneResponse, ProtocolError> {
        let mut streamed = (0u64, 0u64);
        loop {
            let (kind, payload) = self.next_frame()?;
            if kind == frame::VIO_CHUNK {
                let chunk = VioChunk::decode(&payload)?;
                match chunk.side {
                    Side::Added => streamed.0 += chunk.violations.len() as u64,
                    Side::Removed => streamed.1 += chunk.violations.len() as u64,
                }
                on_chunk(chunk.side, chunk.violations);
            } else if kind == done_kind {
                let done = DoneResponse::decode(&payload)?;
                if (done.added_total, done.removed_total) != streamed {
                    return Err(ProtocolError::Corrupt(format!(
                        "stream totals disagree: done frame says {}+{}, streamed {}+{}",
                        done.added_total, done.removed_total, streamed.0, streamed.1
                    )));
                }
                return Ok(done);
            } else {
                return Err(ProtocolError::UnexpectedFrame {
                    expected: done_what,
                    found: kind,
                });
            }
        }
    }

    /// Submit a `ΔG` batch, observing each streamed chunk as it arrives.
    pub fn submit_update_streaming(
        &mut self,
        batch: &BatchUpdate,
        on_chunk: impl FnMut(Side, Vec<Violation>),
    ) -> Result<DoneResponse, ProtocolError> {
        let request = UpdateRequest {
            batch: batch.clone(),
        };
        write_frame(self.stream.get_mut(), frame::UPDATE, &request.encode())?;
        self.drain_stream(frame::UPDATE_DONE, "UPDATE_DONE", on_chunk)
    }

    /// Submit a `ΔG` batch and collect the full `ΔVio`.
    pub fn submit_update(&mut self, batch: &BatchUpdate) -> Result<ServedDelta, ProtocolError> {
        let mut delta = DeltaViolations::new();
        let done = self.submit_update_streaming(batch, |side, violations| {
            let set = match side {
                Side::Added => &mut delta.added,
                Side::Removed => &mut delta.removed,
            };
            for violation in violations {
                set.insert(violation);
            }
        })?;
        Ok(ServedDelta { delta, done })
    }

    /// Run full detection over the session state, observing each chunk.
    pub fn query_streaming(
        &mut self,
        on_chunk: impl FnMut(Side, Vec<Violation>),
    ) -> Result<DoneResponse, ProtocolError> {
        write_frame(self.stream.get_mut(), frame::QUERY, &[])?;
        self.drain_stream(frame::QUERY_DONE, "QUERY_DONE", on_chunk)
    }

    /// Run full detection over the session state and collect the result.
    pub fn query(&mut self) -> Result<ServedQuery, ProtocolError> {
        let mut violations = ViolationSet::new();
        let done = self.query_streaming(|_, chunk| {
            for violation in chunk {
                violations.insert(violation);
            }
        })?;
        Ok(ServedQuery { violations, done })
    }

    /// Fold this session's accumulated `ΔG` into a fresh snapshot epoch
    /// and publish it server-wide.  Afterwards this session reads the new
    /// epoch with an empty overlay; other sessions re-root at their next
    /// message boundary.
    pub fn compact(&mut self) -> Result<EpochResponse, ProtocolError> {
        write_frame(self.stream.get_mut(), frame::COMPACT, &[])?;
        let payload = self.expect(frame::EPOCH_OK, "EPOCH_OK")?;
        EpochResponse::decode(&payload)
    }

    /// Query the session's and the server's current snapshot epochs.
    pub fn epoch(&mut self) -> Result<EpochResponse, ProtocolError> {
        write_frame(self.stream.get_mut(), frame::EPOCH, &[])?;
        let payload = self.expect(frame::EPOCH_OK, "EPOCH_OK")?;
        EpochResponse::decode(&payload)
    }

    /// Fetch the daemon's metrics-registry snapshot (counters, gauges,
    /// latency histograms across match/detect/persist/serve).  Render it
    /// with [`ngd_obs::render_prometheus`] / [`ngd_obs::render_json`].
    pub fn metrics(&mut self) -> Result<ngd_obs::MetricsSnapshot, ProtocolError> {
        write_frame(self.stream.get_mut(), frame::METRICS, &[])?;
        let payload = self.expect(frame::METRICS_OK, "METRICS_OK")?;
        Ok(MetricsResponse::decode(&payload)?.snapshot)
    }

    /// Fetch server and session statistics.
    pub fn stats(&mut self) -> Result<StatsResponse, ProtocolError> {
        write_frame(self.stream.get_mut(), frame::STATS, &[])?;
        let payload = self.expect(frame::STATS_OK, "STATS_OK")?;
        StatsResponse::decode(&payload)
    }

    /// Drop the session's accumulated update.
    pub fn reset(&mut self) -> Result<String, ProtocolError> {
        write_frame(self.stream.get_mut(), frame::RESET, &[])?;
        let payload = self.expect(frame::OK, "OK")?;
        Ok(OkResponse::decode(&payload)?.message)
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<String, ProtocolError> {
        write_frame(self.stream.get_mut(), frame::SHUTDOWN, &[])?;
        let payload = self.expect(frame::OK, "OK")?;
        Ok(OkResponse::decode(&payload)?.message)
    }
}
