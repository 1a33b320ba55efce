//! The hub's one call surface. Every shared-state op a worker performs in a
//! round — the PS push/pull and status all-gather of Alg. 1 (lines 10–15), the
//! signal all-reduces, the δ-policy board, the membership barrier and the
//! checkpoint deposit — is one [`HubCall`], answered by one [`HubReply`].
//!
//! In-process workers hand the typed value straight to the hub; worker
//! processes send [`HubCall::encode`] as the payload of an RPC frame whose
//! header carries the round, and the hub parses it with [`HubCall::decode`],
//! which rejects malformed input with an error instead of panicking.
//!
//! Byte layout (all integers and floats little-endian; a request's first byte
//! is its op tag, 1–12 in declaration order):
//!
//! | call | request args | reply |
//! |---|---|---|
//! | `Pull` | — | f32s |
//! | `ScheduledGlobalBefore` | — | f32s |
//! | `ScheduledRoundBefore` | — | `0`, or `1` + round u64 |
//! | `SyncRound` | expected u32, f32s | f32s |
//! | `AllgatherFlags` | flag u8, expected u32 | one u8 per worker |
//! | `AllreduceScalar` | op u8, expected u32, value f32 | f32 |
//! | `AllreduceVec` | op u8, expected u32, f32s | f32s |
//! | `WaitCaughtUp` | round u64 | — |
//! | `DeltaFor` | round u64 | f32 |
//! | `Observe` | iteration u64, max_delta, mean_loss, delta_mean, delta_sq_mean f32, synced u8, next_round u64 | — |
//! | `RoundBegin` | round u64 | count u32, then (worker u32, round u64) pairs |
//! | `Deposit` | round u64, the `"deposit"` [`Checkpoint`] text | — |
//!
//! Booleans are `0`/`1`; scalar-op tags are `0` = Sum, `1` = Mean, `2` = Max.

use crate::checkpoint::{Checkpoint, Section};
use crate::policy::RoundSignal;
use selsync_comm::ScalarOp;
use selsync_tracelog::{codec, Event};

/// The round header of a call no round keys ([`HubCall::Pull`]).
pub const NO_ROUND: u64 = u64::MAX;

/// Scalar ops by wire tag.
const SCALAR_OPS: [ScalarOp; 3] = [ScalarOp::Sum, ScalarOp::Mean, ScalarOp::Max];

/// One worker request to the hub. Round-keyed rendezvous ops take their round
/// from the call's header; the board and barrier ops carry it in the payload.
/// `expected` is the number of workers present at the round.
#[derive(Debug)]
pub enum HubCall {
    /// The PS's current global vector.
    Pull,
    /// The global of the last scheduled synchronization before the header round.
    ScheduledGlobalBefore,
    /// The round that global came from, if any synchronization preceded it.
    ScheduledRoundBefore,
    /// `(expected, params)`: push into the header round's elastic PS round and
    /// pull the worker-order average.
    SyncRound(usize, Vec<f32>),
    /// `(flag, expected)`: the full-width status all-gather.
    AllgatherFlags(bool, usize),
    /// `(op, expected, value)`: worker-order scalar all-reduce.
    AllreduceScalar(ScalarOp, usize, f32),
    /// `(op, expected, values)`: worker-order elementwise all-reduce.
    AllreduceVec(ScalarOp, usize, Vec<f32>),
    /// Block until the policy has observed every active round before this one.
    WaitCaughtUp(usize),
    /// The shared policy's δ for this round.
    DeltaFor(usize),
    /// `(signal, next_round)`: post a round's cluster signal and advance the
    /// board to `next_round`.
    Observe(RoundSignal, usize),
    /// Announce this round at its boundary; the reply is the hub's frozen
    /// prefix of death evictions.
    RoundBegin(usize),
    /// This worker's recovery section for the checkpoint after `round`, and
    /// the trace shard of a worker that records into its own sink. Blocks
    /// until the image is written (or voided).
    Deposit {
        round: usize,
        fingerprint: u64,
        section: Section,
        trace: Vec<Event>,
    },
}

/// The hub's answer to a [`HubCall`]. Replies carry no tag: the call they
/// answer fixes their shape.
#[derive(Debug, PartialEq)]
pub enum HubReply {
    /// The op only blocks or posts (`WaitCaughtUp`, `Observe`, `Deposit`).
    Done,
    /// A parameter or signal vector.
    Vector(Vec<f32>),
    /// A reduced scalar or a δ.
    Scalar(f32),
    /// The full-width status flags, indexed by worker.
    Flags(Vec<bool>),
    /// The round a scheduled global came from.
    Round(Option<usize>),
    /// `(worker, first-absent round)` death evictions in creation order.
    Evictions(Vec<(usize, usize)>),
}

/// Little-endian payload writer.
struct Writer(Vec<u8>);

impl Writer {
    fn bytes(mut self, bytes: &[u8]) -> Self {
        self.0.extend_from_slice(bytes);
        self
    }

    fn u32(self, v: usize) -> Self {
        self.bytes(&(v as u32).to_le_bytes())
    }

    fn u64(self, v: usize) -> Self {
        self.bytes(&(v as u64).to_le_bytes())
    }

    fn f32s(mut self, values: &[f32]) -> Self {
        self.0.reserve(4 * values.len());
        for v in values {
            self.0.extend_from_slice(&v.to_le_bytes());
        }
        self
    }
}

/// A bounds-checked little-endian payload reader: a read past the end, a byte
/// outside a field's range and any byte left at [`Reader::finish`] are errors.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn bytes<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let (head, rest) = self.0.split_first_chunk().ok_or("truncated payload")?;
        self.0 = rest;
        Ok(*head)
    }

    /// The entry of `table` this byte indexes.
    fn pick<T: Copy>(&mut self, table: &[T]) -> Result<T, String> {
        let [tag] = self.bytes()?;
        table
            .get(tag as usize)
            .copied()
            .ok_or_else(|| format!("tag {tag} out of range"))
    }

    fn bool(&mut self) -> Result<bool, String> {
        self.pick(&[false, true])
    }

    fn u32(&mut self) -> Result<usize, String> {
        Ok(u32::from_le_bytes(self.bytes()?) as usize)
    }

    fn u64(&mut self) -> Result<usize, String> {
        Ok(u64::from_le_bytes(self.bytes()?) as usize)
    }

    fn f32(&mut self) -> Result<f32, String> {
        Ok(f32::from_le_bytes(self.bytes()?))
    }

    /// Everything left, as f32s.
    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let (chunks, []) = std::mem::take(&mut self.0).as_chunks() else {
            return Err("f32 payload length is not a multiple of 4".to_string());
        };
        Ok(chunks.iter().map(|&c| f32::from_le_bytes(c)).collect())
    }

    fn finish(self) -> Result<(), String> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes")),
        }
    }
}

impl HubCall {
    /// The request payload: the op tag, then the arguments.
    pub fn encode(&self) -> Vec<u8> {
        let op = |op: &ScalarOp| SCALAR_OPS.iter().position(|o| o == op).expect("tagged") as u8;
        let w = Writer(Vec::new());
        match self {
            HubCall::Pull => w.bytes(&[1]),
            HubCall::ScheduledGlobalBefore => w.bytes(&[2]),
            HubCall::ScheduledRoundBefore => w.bytes(&[3]),
            HubCall::SyncRound(expected, params) => w.bytes(&[4]).u32(*expected).f32s(params),
            HubCall::AllgatherFlags(flag, expected) => {
                w.bytes(&[5, u8::from(*flag)]).u32(*expected)
            }
            HubCall::AllreduceScalar(o, expected, value) => {
                w.bytes(&[6, op(o)]).u32(*expected).f32s(&[*value])
            }
            HubCall::AllreduceVec(o, expected, values) => {
                w.bytes(&[7, op(o)]).u32(*expected).f32s(values)
            }
            HubCall::WaitCaughtUp(round) => w.bytes(&[8]).u64(*round),
            HubCall::DeltaFor(round) => w.bytes(&[9]).u64(*round),
            HubCall::Observe(s, next_round) => w
                .bytes(&[10])
                .u64(s.iteration)
                .f32s(&[s.max_delta, s.mean_loss, s.delta_mean, s.delta_sq_mean])
                .bytes(&[u8::from(s.synced)])
                .u64(*next_round),
            HubCall::RoundBegin(round) => w.bytes(&[11]).u64(*round),
            HubCall::Deposit {
                round,
                fingerprint,
                section,
                trace,
            } => {
                let mut image = Checkpoint::new("deposit", *fingerprint, *round);
                image.add_section(section.clone());
                image.trace = trace.iter().map(codec::encode_event).collect();
                w.bytes(&[12]).u64(*round).bytes(image.encode().as_bytes())
            }
        }
        .0
    }

    /// Parse a request payload. Anything [`Self::encode`] cannot produce is
    /// an error: an empty payload, an unknown op or scalar-op tag, a truncated
    /// or over-long fixed-size payload, an f32 payload whose length is not a
    /// multiple of 4, and a deposit that is not UTF-8, fails to decode, or is
    /// not a one-section `"deposit"` image of the round it names.
    pub fn decode(payload: &[u8]) -> Result<HubCall, String> {
        let mut r = Reader(payload);
        let call = match r.bytes().map_err(|_| "empty request")? {
            [1] => HubCall::Pull,
            [2] => HubCall::ScheduledGlobalBefore,
            [3] => HubCall::ScheduledRoundBefore,
            [4] => HubCall::SyncRound(r.u32()?, r.f32s()?),
            [5] => HubCall::AllgatherFlags(r.bool()?, r.u32()?),
            [6] => HubCall::AllreduceScalar(r.pick(&SCALAR_OPS)?, r.u32()?, r.f32()?),
            [7] => HubCall::AllreduceVec(r.pick(&SCALAR_OPS)?, r.u32()?, r.f32s()?),
            [8] => HubCall::WaitCaughtUp(r.u64()?),
            [9] => HubCall::DeltaFor(r.u64()?),
            [10] => {
                let signal = RoundSignal {
                    iteration: r.u64()?,
                    max_delta: r.f32()?,
                    mean_loss: r.f32()?,
                    delta_mean: r.f32()?,
                    delta_sq_mean: r.f32()?,
                    synced: r.bool()?,
                };
                HubCall::Observe(signal, r.u64()?)
            }
            [11] => HubCall::RoundBegin(r.u64()?),
            [12] => {
                let round = r.u64()?;
                let text = std::str::from_utf8(std::mem::take(&mut r.0))
                    .map_err(|e| format!("deposit is not UTF-8: {e}"))?;
                let image = Checkpoint::decode(text)?;
                if image.backend != "deposit" || image.round != round {
                    return Err(format!("deposit for round {round} carries another image"));
                }
                let [section] = <[Section; 1]>::try_from(image.sections)
                    .map_err(|_| "a deposit carries exactly one section")?;
                HubCall::Deposit {
                    round,
                    fingerprint: image.fingerprint,
                    section,
                    trace: image
                        .trace
                        .iter()
                        .map(|line| codec::decode_event(line))
                        .collect::<Result<_, _>>()?,
                }
            }
            [other] => return Err(format!("unknown op {other}")),
        };
        r.finish()?;
        Ok(call)
    }
}

macro_rules! reply_accessors {
    ($($name:ident: $variant:ident -> $ty:ty),* $(,)?) => {$(
        #[doc = concat!("The payload of a `", stringify!($variant), "` reply.")]
        pub fn $name(self) -> $ty {
            match self {
                HubReply::$variant(value) => value,
                other => panic!("expected a {} reply, got {other:?}", stringify!($variant)),
            }
        }
    )*};
}

impl HubReply {
    /// The reply payload.
    pub fn encode(&self) -> Vec<u8> {
        let w = Writer(Vec::new());
        match self {
            HubReply::Done => w,
            HubReply::Vector(values) => w.f32s(values),
            HubReply::Scalar(value) => w.f32s(&[*value]),
            HubReply::Flags(flags) => Writer(flags.iter().map(|&f| u8::from(f)).collect()),
            HubReply::Round(None) => w.bytes(&[0]),
            HubReply::Round(Some(round)) => w.bytes(&[1]).u64(*round),
            HubReply::Evictions(evictions) => evictions
                .iter()
                .fold(w.u32(evictions.len()), |w, &(worker, round)| {
                    w.u32(worker).u64(round)
                }),
        }
        .0
    }

    /// Parse the payload answering `call`, with the same strictness as
    /// [`HubCall::decode`].
    pub fn decode(call: &HubCall, payload: &[u8]) -> Result<HubReply, String> {
        let mut r = Reader(payload);
        let reply = match call {
            HubCall::Pull
            | HubCall::ScheduledGlobalBefore
            | HubCall::SyncRound(..)
            | HubCall::AllreduceVec(..) => HubReply::Vector(r.f32s()?),
            HubCall::AllreduceScalar(..) | HubCall::DeltaFor(_) => HubReply::Scalar(r.f32()?),
            HubCall::AllgatherFlags(..) => {
                HubReply::Flags(payload.iter().map(|_| r.bool()).collect::<Result<_, _>>()?)
            }
            HubCall::ScheduledRoundBefore => {
                HubReply::Round(if r.bool()? { Some(r.u64()?) } else { None })
            }
            HubCall::RoundBegin(_) => HubReply::Evictions(
                (0..r.u32()?)
                    .map(|_| Ok((r.u32()?, r.u64()?)))
                    .collect::<Result<_, String>>()?,
            ),
            HubCall::WaitCaughtUp(_) | HubCall::Observe(..) | HubCall::Deposit { .. } => {
                HubReply::Done
            }
        };
        r.finish()?;
        Ok(reply)
    }

    reply_accessors! {
        vector: Vector -> Vec<f32>,
        scalar: Scalar -> f32,
        flags: Flags -> Vec<bool>,
        round: Round -> Option<usize>,
        evictions: Evictions -> Vec<(usize, usize)>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `"deposit"` request whose image is built by hand, so each test can
    /// break one property of it.
    fn deposit_request(round: u64, image: &Checkpoint) -> Vec<u8> {
        let mut out = vec![12];
        out.extend_from_slice(&round.to_le_bytes());
        out.extend_from_slice(image.encode().as_bytes());
        out
    }

    #[test]
    fn malformed_requests_are_errors_not_panics() {
        let worker0 = || Section::new("worker0");
        let mut two_sections = Checkpoint::new("deposit", 7, 3);
        two_sections.add_section(worker0());
        two_sections.add_section(Section::new("worker1"));
        let mut wrong_tag = Checkpoint::new("process", 7, 3);
        wrong_tag.add_section(worker0());
        let mut other_round = Checkpoint::new("deposit", 7, 4);
        other_round.add_section(worker0());
        let mut bad_trace = Checkpoint::new("deposit", 7, 3);
        bad_trace.add_section(worker0());
        bad_trace.trace.push("{not an event}".to_string());
        let mut not_utf8 = vec![12, 3, 0, 0, 0, 0, 0, 0, 0];
        not_utf8.extend_from_slice(&[0xff, 0xfe]);
        let cases: Vec<(&str, Vec<u8>)> = vec![
            ("empty", vec![]),
            ("unknown op", vec![13]),
            ("op zero", vec![0]),
            ("over-long pull", vec![1, 0]),
            ("truncated round", vec![8, 0, 0, 0]),
            ("over-long round", vec![11, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            ("truncated expected", vec![4, 1, 0]),
            ("ragged f32s", vec![4, 1, 0, 0, 0, 1, 2, 3]),
            ("ragged vec all-reduce", vec![7, 1, 1, 0, 0, 0, 9]),
            ("unknown scalar op", vec![6, 3, 1, 0, 0, 0, 0, 0, 0, 0]),
            ("truncated scalar", vec![6, 0, 1, 0, 0, 0, 0]),
            ("bad flag byte", vec![5, 2, 1, 0, 0, 0]),
            ("truncated observe", vec![10, 0, 0, 0, 0]),
            ("deposit not UTF-8", not_utf8),
            ("deposit garbage", vec![12, 3, 0, 0, 0, 0, 0, 0, 0, b'x']),
            ("deposit two sections", deposit_request(3, &two_sections)),
            ("deposit wrong tag", deposit_request(3, &wrong_tag)),
            ("deposit other round", deposit_request(3, &other_round)),
            ("deposit bad trace line", deposit_request(3, &bad_trace)),
        ];
        for (what, payload) in cases {
            assert!(HubCall::decode(&payload).is_err(), "{what} decoded");
        }
    }

    #[test]
    fn replies_that_do_not_fit_their_call_are_errors() {
        let cases: Vec<(HubCall, Vec<u8>)> = vec![
            (HubCall::Pull, vec![0, 0, 0]),
            (HubCall::DeltaFor(0), vec![]),
            (HubCall::WaitCaughtUp(0), vec![0]),
            (HubCall::ScheduledRoundBefore, vec![2]),
            (HubCall::ScheduledRoundBefore, vec![1, 0]),
            (HubCall::RoundBegin(0), vec![1, 0, 0, 0]),
            (HubCall::RoundBegin(0), vec![0, 0, 0, 0, 0]),
            (HubCall::AllgatherFlags(true, 1), vec![1, 7]),
        ];
        for (call, payload) in cases {
            assert!(
                HubReply::decode(&call, &payload).is_err(),
                "{call:?} accepted {payload:?}"
            );
        }
    }

    #[test]
    fn a_deposit_round_trips_its_section_and_trace() {
        let mut section = Section::new("worker2");
        section.push_f32s(&[f32::NAN, -0.0, f32::INFINITY]);
        section.push_int(u64::MAX);
        let trace = vec![
            Event::CommEvict {
                round: 4,
                worker: 2,
            },
            Event::PsDown { round: 5 },
        ];
        let call = HubCall::Deposit {
            round: 9,
            fingerprint: 0xfeed,
            section: section.clone(),
            trace: trace.clone(),
        };
        let bytes = call.encode();
        let HubCall::Deposit {
            round,
            fingerprint,
            section: back,
            trace: back_trace,
        } = HubCall::decode(&bytes).expect("decodes")
        else {
            panic!("a deposit decodes as a deposit");
        };
        assert_eq!((round, fingerprint), (9, 0xfeed));
        assert_eq!(back.name, section.name);
        assert_eq!(back.ints, section.ints);
        let bits = |s: &Section| s.floats.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&section));
        assert_eq!(back_trace, trace);
    }
}
