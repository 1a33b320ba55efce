//! The hub's RPC surface from the outside: the typed codec round-trips every
//! call and reply bit for bit, and a hub serving real sockets survives any
//! malformed payload by evicting its sender instead of panicking.

use proptest::prelude::*;
use selsync_repro::comm::socket::{SocketAddrSpec, SocketConn};
use selsync_repro::comm::ScalarOp;
use selsync_repro::core::checkpoint::Section;
use selsync_repro::core::config::{AlgorithmSpec, TrainConfig};
use selsync_repro::core::hubcall::{HubCall, HubReply};
use selsync_repro::core::policy::RoundSignal;
use selsync_repro::core::process::{run_process_hub, CONNECT_RETRY};
use selsync_repro::nn::model::ModelKind;
use selsync_repro::tracelog::{Event, EventLog, TraceGranularity, TraceSink};

/// A draw woven with the floats a codec most easily breaks: NaNs with
/// arbitrary payload and sign, ±infinity and both zeros.
fn pick_f32(bits: u32, selector: u8) -> f32 {
    match selector % 8 {
        0 => f32::from_bits(bits | 0x7f80_0001),
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        _ => f32::from_bits(bits),
    }
}

fn floats(bits: &[u32], selectors: &[u8]) -> Vec<f32> {
    bits.iter()
        .zip(selectors.iter().cycle())
        .map(|(&b, &s)| pick_f32(b, s))
        .collect()
}

fn scalar_op(tag: u8) -> ScalarOp {
    [ScalarOp::Sum, ScalarOp::Mean, ScalarOp::Max][tag as usize % 3]
}

/// One call of each kind from the same draw; `small` fits the u32 fields.
fn build_call(kind: u8, small: usize, big: usize, values: Vec<f32>, flag: bool) -> HubCall {
    let one = values.first().copied().unwrap_or(f32::NAN);
    match kind % 12 {
        0 => HubCall::Pull,
        1 => HubCall::ScheduledGlobalBefore,
        2 => HubCall::ScheduledRoundBefore,
        3 => HubCall::SyncRound(small, values),
        4 => HubCall::AllgatherFlags(flag, small),
        5 => HubCall::AllreduceScalar(scalar_op(flag as u8 + small as u8), small, one),
        6 => HubCall::AllreduceVec(scalar_op(small as u8), small, values),
        7 => HubCall::WaitCaughtUp(big),
        8 => HubCall::DeltaFor(big),
        9 => HubCall::Observe(
            RoundSignal {
                iteration: big,
                max_delta: one,
                mean_loss: values.get(1).copied().unwrap_or(-0.0),
                delta_mean: values.get(2).copied().unwrap_or(f32::INFINITY),
                delta_sq_mean: values.last().copied().unwrap_or(0.0),
                synced: flag,
            },
            small,
        ),
        10 => HubCall::RoundBegin(big),
        _ => {
            let mut section = Section::new(format!("worker{small}"));
            section.push_f32s(&values);
            section.push_int(big as u64);
            section.push_bool(flag);
            HubCall::Deposit {
                round: big,
                fingerprint: big as u64 ^ 0x5eed,
                section,
                trace: vec![
                    Event::CommEvict {
                        round: small,
                        worker: 1,
                    },
                    Event::PsDown { round: big },
                ],
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    /// `decode(encode(call))` is the call. Floats are compared bit for bit
    /// through the re-encoding: the encoding writes every field's raw bits, so
    /// equal bytes mean equal values, NaN payloads included; the `Debug` check
    /// additionally rules out fields swapped symmetrically in both directions.
    #[test]
    fn hub_calls_round_trip_bit_exactly(
        kind in 0u8..12,
        small in 0u32..u32::MAX,
        big in 0u64..u64::MAX,
        bits in proptest::collection::vec(0u32..u32::MAX, 0..9),
        selectors in proptest::collection::vec(0u8..255, 1..4),
        flag in 0u8..2,
    ) {
        let call = build_call(
            kind,
            small as usize,
            big as usize,
            floats(&bits, &selectors),
            flag == 1,
        );
        let bytes = call.encode();
        let back = HubCall::decode(&bytes).expect("an encoded call decodes");
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(format!("{back:?}"), format!("{call:?}"));
    }

    /// `decode(encode(reply))` is the reply, bit for bit, for the call whose
    /// answer has that shape.
    #[test]
    fn hub_replies_round_trip_bit_exactly(
        kind in 0u8..6,
        small in 0u32..u32::MAX,
        big in 0u64..u64::MAX,
        bits in proptest::collection::vec(0u32..u32::MAX, 0..9),
        selectors in proptest::collection::vec(0u8..255, 1..4),
        flag in 0u8..2,
    ) {
        let values = floats(&bits, &selectors);
        let (call, reply) = match kind {
            0 => (HubCall::WaitCaughtUp(0), HubReply::Done),
            1 => (HubCall::Pull, HubReply::Vector(values)),
            2 => (
                HubCall::DeltaFor(0),
                HubReply::Scalar(values.first().copied().unwrap_or(-0.0)),
            ),
            3 => (
                HubCall::AllgatherFlags(true, 1),
                HubReply::Flags(bits.iter().map(|b| b % 2 == 1).collect()),
            ),
            4 => (
                HubCall::ScheduledRoundBefore,
                HubReply::Round((flag == 1).then_some(big as usize)),
            ),
            _ => (
                HubCall::RoundBegin(0),
                HubReply::Evictions(
                    bits.iter().map(|&b| (b as usize, big as usize ^ small as usize)).collect(),
                ),
            ),
        };
        let bytes = reply.encode();
        let back = HubReply::decode(&call, &bytes).expect("an encoded reply decodes");
        prop_assert_eq!(back.encode(), bytes);
        prop_assert_eq!(format!("{back:?}"), format!("{reply:?}"));
    }
}

fn hub_cfg(workers: usize) -> TrainConfig {
    let mut c = TrainConfig::small(ModelKind::ResNetLike, workers);
    c.iterations = 10;
    c.algorithm = AlgorithmSpec::selsync(0.05);
    c.trace = TraceSink::capture(TraceGranularity::Full);
    c
}

fn temp_sock(tag: &str) -> SocketAddrSpec {
    SocketAddrSpec::Unix(
        std::env::temp_dir().join(format!("selsync-hub-rpc-{tag}-{}", std::process::id())),
    )
}

/// Run a hub for `clients.len()` workers and connect one raw client per
/// entry: `(sender id, payloads)`. Each client sends its payloads in order,
/// asserts every reply is empty, then hangs up. Returns the hub's shard.
fn serve_raw_clients(tag: &str, clients: Vec<(u32, Vec<Vec<u8>>)>) -> EventLog {
    let cfg = hub_cfg(clients.len());
    let addr = temp_sock(tag);
    let shard = std::thread::scope(|scope| {
        let hub = scope.spawn(|| run_process_hub(&cfg, &addr));
        for (sender, payloads) in clients {
            let addr = &addr;
            scope.spawn(move || {
                let conn = SocketConn::connect(addr, CONNECT_RETRY).expect("connect to the hub");
                let client = conn.client(sender);
                for payload in payloads {
                    let reply = client.rpc(0, payload);
                    assert!(reply.is_empty(), "sender {sender} got a non-empty reply");
                }
            });
        }
        hub.join().expect("the hub returns normally")
    });
    if let SocketAddrSpec::Unix(path) = &addr {
        let _ = std::fs::remove_file(path);
    }
    EventLog::decode(&shard).expect("the hub's shard decodes")
}

#[test]
fn malformed_payloads_evict_their_senders_and_the_hub_returns() {
    let mut not_utf8 = vec![12, 0, 0, 0, 0, 0, 0, 0, 0];
    not_utf8.extend_from_slice(&[0xff, 0xfe, 0xfd]);
    let mut not_an_image = vec![12, 0, 0, 0, 0, 0, 0, 0, 0];
    not_an_image.extend_from_slice(b"selsync-ckpt v1\nchecksum 0");
    let malformed = vec![
        vec![],                                // empty payload
        vec![200],                             // unknown op
        vec![8, 0, 0, 0],                      // truncated round
        vec![1, 0],                            // over-long pull
        vec![4, 1, 0, 0, 0, 1, 2, 3],          // f32s not a multiple of 4
        vec![6, 9, 1, 0, 0, 0, 0, 0, 0, 0x3f], // unknown scalar-op tag
        not_utf8,
        not_an_image,
    ];
    // After its malformed call a worker is dead: a well-formed round-0
    // announcement must get an empty reply instead of reaching the barrier.
    let round_begin = HubCall::RoundBegin(0).encode();
    let clients = malformed
        .into_iter()
        .enumerate()
        .map(|(w, payload)| (w as u32, vec![payload, round_begin.clone()]))
        .collect();
    let shard = serve_raw_clients("malformed", clients);
    assert!(
        matches!(shard.events.first(), Some(Event::Header { workers: 8, .. })),
        "the shard opens with the run header"
    );
}

#[test]
fn sender_ids_outside_the_cluster_are_ignored() {
    let pull = HubCall::Pull.encode();
    // Sender 7 of a two-worker hub: its calls get empty replies and its
    // hang-up is no death; worker 0 sends garbage and is evicted.
    let shard = serve_raw_clients("outsider", vec![(7, vec![pull]), (0, vec![vec![99]])]);
    assert!(!shard.events.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Arbitrary bytes behind any tag never panic the decoder, and whatever it
    /// accepts is canonical: it re-encodes to exactly the bytes it came from.
    #[test]
    fn arbitrary_payloads_decode_to_an_error_or_a_canonical_call(
        tag in 0u8..14,
        rest in proptest::collection::vec(0u8..255, 0..40),
    ) {
        let payload = [&[tag][..], &rest].concat();
        if let Ok(call) = HubCall::decode(&payload) {
            prop_assert_eq!(call.encode(), payload);
        }
    }
}
