//! Serialized, length-prefixed wire messages for hub connections.
//!
//! Every frame on a hub connection is an [`Envelope`]: a message kind, the
//! logical round id, the sender id and an opaque payload. Envelopes encode to a
//! rigid little-endian frame with a length prefix and a trailing checksum, so a
//! receiver can detect truncation and corruption without trusting the content.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! [len: u32]            length of everything after this prefix
//! [kind: u8]            message kind tag
//! [round: u64]          logical round id
//! [sender: u32]         worker id (or HUB_SENDER for hub replies)
//! [payload_len: u32]    payload byte count
//! [payload: ...]        opaque op payload
//! [checksum: u64]       FNV-1a over every preceding byte of the frame
//! ```

/// Sender id used by the hub (parameter-server side) on response envelopes.
pub const HUB_SENDER: u32 = u32::MAX;

/// Fixed frame overhead in bytes: length prefix + kind + round + sender +
/// payload length + checksum.
pub const FRAME_OVERHEAD_BYTES: usize = 4 + 1 + 8 + 4 + 4 + 8;

/// The kind of operation an envelope describes. Hub connections carry only
/// [`MsgKind::Rpc`]; the other tags still decode, so the hub can tell a
/// well-formed frame of the wrong kind from a corrupt one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Pull the global model (initial pull or rejoin pull).
    Pull,
    /// Push local parameters to the PS.
    Push,
    /// A blocking synchronization round (push + averaged pull).
    SyncRound,
    /// The 1-bit sync-status contribution to the flags all-gather.
    Flags,
    /// A scalar contribution to the round-signal all-reduce (loss, Δ(g)).
    ScalarReduce,
    /// A fixed-size vector contribution to the round-signal all-reduce (Δ moments).
    VecReduce,
    /// Hub acknowledgement of a received envelope.
    Ack,
    /// A blocking remote-procedure call to the hub process (socket backend):
    /// the payload carries an op tag plus its arguments, and the hub answers
    /// with an `Rpc` envelope carrying the result.
    Rpc,
}

impl MsgKind {
    /// Wire tag.
    pub fn as_u8(&self) -> u8 {
        match self {
            MsgKind::Pull => 0,
            MsgKind::Push => 1,
            MsgKind::SyncRound => 2,
            MsgKind::Flags => 3,
            MsgKind::ScalarReduce => 4,
            MsgKind::VecReduce => 5,
            MsgKind::Ack => 6,
            MsgKind::Rpc => 7,
        }
    }

    /// Parse a wire tag.
    pub fn from_u8(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => MsgKind::Pull,
            1 => MsgKind::Push,
            2 => MsgKind::SyncRound,
            3 => MsgKind::Flags,
            4 => MsgKind::ScalarReduce,
            5 => MsgKind::VecReduce,
            6 => MsgKind::Ack,
            7 => MsgKind::Rpc,
            other => return Err(WireError::UnknownKind(other)),
        })
    }
}

/// Decode failure modes. Corruption anywhere in the frame surfaces as one of these
/// (usually `BadChecksum`); the hub treats each as the end of that connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the header or the length prefix promises.
    Truncated,
    /// The length prefix disagrees with the actual frame size.
    LengthMismatch { expected: usize, got: usize },
    /// Unknown kind tag.
    UnknownKind(u8),
    /// The trailing checksum does not match the frame content.
    BadChecksum { expected: u64, got: u64 },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::LengthMismatch { expected, got } => {
                write!(f, "length prefix {expected} but frame carries {got}")
            }
            WireError::UnknownKind(tag) => write!(f, "unknown message kind tag {tag}"),
            WireError::BadChecksum { expected, got } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:#x}, computed {got:#x}"
                )
            }
        }
    }
}

/// One wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    pub kind: MsgKind,
    pub round: u64,
    pub sender: u32,
    pub payload: Vec<u8>,
}

/// FNV-1a 64-bit over a byte slice — cheap, well-distributed, dependency-free.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Total frame size for a payload of `payload_len` bytes (the number the cost model
/// charges per (re)transmission).
pub fn frame_len(payload_len: usize) -> usize {
    FRAME_OVERHEAD_BYTES + payload_len
}

impl Envelope {
    /// Encode to the canonical length-prefixed frame.
    pub fn encode(&self) -> Vec<u8> {
        let body_len = 1 + 8 + 4 + 4 + self.payload.len() + 8;
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.push(self.kind.as_u8());
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.sender.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Decode a frame, verifying the length prefix and the checksum. Any corruption
    /// fails here, so garbage never reaches a handler.
    pub fn decode(frame: &[u8]) -> Result<Envelope, WireError> {
        if frame.len() < FRAME_OVERHEAD_BYTES {
            return Err(WireError::Truncated);
        }
        let body_len = u32::from_le_bytes(frame[0..4].try_into().unwrap()) as usize;
        if frame.len() != 4 + body_len {
            return Err(WireError::LengthMismatch {
                expected: body_len,
                got: frame.len().saturating_sub(4),
            });
        }
        let sum_offset = frame.len() - 8;
        let got = checksum(&frame[..sum_offset]);
        let expected = u64::from_le_bytes(frame[sum_offset..].try_into().unwrap());
        if got != expected {
            return Err(WireError::BadChecksum { expected, got });
        }
        let kind = MsgKind::from_u8(frame[4])?;
        let round = u64::from_le_bytes(frame[5..13].try_into().unwrap());
        let sender = u32::from_le_bytes(frame[13..17].try_into().unwrap());
        let payload_len = u32::from_le_bytes(frame[17..21].try_into().unwrap()) as usize;
        if 21 + payload_len + 8 != frame.len() {
            return Err(WireError::LengthMismatch {
                expected: payload_len,
                got: frame.len().saturating_sub(21 + 8),
            });
        }
        Ok(Envelope {
            kind,
            round,
            sender,
            payload: frame[21..21 + payload_len].to_vec(),
        })
    }
}

/// Upper bound on a single frame's body length. Byte-stream corruption of the
/// length prefix must not make the decoder buffer gigabytes waiting for a frame
/// that will never complete; the largest legitimate frame is a full parameter
/// vector, orders of magnitude below this.
pub const MAX_FRAME_BODY_BYTES: usize = 1 << 30;

/// Incremental frame decoder for byte streams (TCP/UDS), where a single `read`
/// may return part of a frame or several coalesced frames. Feed arbitrary
/// chunks with [`push`](FrameDecoder::push) and drain complete raw frames with
/// [`next_frame`](FrameDecoder::next_frame); frame *content* is still validated
/// by [`Envelope::decode`] — this type only reassembles the length-prefixed
/// framing.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    cursor: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append bytes read from the stream, in arrival order.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame (length prefix included), `Ok(None)` if the
    /// buffered bytes do not yet form one, or an error if the length prefix is
    /// implausibly large (a corrupted stream that would otherwise buffer
    /// forever).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.cursor..];
        if avail.len() < 4 {
            self.compact();
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(avail[0..4].try_into().unwrap()) as usize;
        if body_len > MAX_FRAME_BODY_BYTES {
            return Err(WireError::LengthMismatch {
                expected: body_len,
                got: avail.len().saturating_sub(4),
            });
        }
        if avail.len() < 4 + body_len {
            self.compact();
            return Ok(None);
        }
        let frame = avail[..4 + body_len].to_vec();
        self.cursor += 4 + body_len;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed as a complete frame — nonzero after
    /// EOF means the stream ended mid-frame (a truncated tail).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.cursor
    }

    fn compact(&mut self) {
        if self.cursor > 0 {
            self.buf.drain(..self.cursor);
            self.cursor = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Envelope {
        Envelope {
            kind: MsgKind::Flags,
            round: 17,
            sender: 3,
            payload: vec![1],
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_tag() {
        for kind in [
            MsgKind::Pull,
            MsgKind::Push,
            MsgKind::SyncRound,
            MsgKind::Flags,
            MsgKind::ScalarReduce,
            MsgKind::VecReduce,
            MsgKind::Ack,
            MsgKind::Rpc,
        ] {
            assert_eq!(MsgKind::from_u8(kind.as_u8()), Ok(kind));
        }
        assert_eq!(MsgKind::from_u8(9), Err(WireError::UnknownKind(9)));
    }

    #[test]
    fn encode_decode_round_trips() {
        let env = sample();
        let frame = env.encode();
        assert_eq!(frame.len(), frame_len(env.payload.len()));
        assert_eq!(Envelope::decode(&frame), Ok(env));
    }

    #[test]
    fn empty_payload_round_trips() {
        let env = Envelope {
            kind: MsgKind::Ack,
            round: 0,
            sender: HUB_SENDER,
            payload: vec![],
        };
        assert_eq!(Envelope::decode(&env.encode()), Ok(env));
    }

    #[test]
    fn any_single_byte_corruption_is_rejected() {
        let frame = sample().encode();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0xFF;
            assert!(
                Envelope::decode(&bad).is_err(),
                "flipping byte {i} must not decode cleanly"
            );
        }
    }

    #[test]
    fn truncation_and_length_lies_are_rejected() {
        let frame = sample().encode();
        assert_eq!(Envelope::decode(&frame[..5]), Err(WireError::Truncated));
        assert!(matches!(
            Envelope::decode(&frame[..frame.len() - 1]),
            Err(WireError::LengthMismatch { .. })
        ));
        let mut padded = frame.clone();
        padded.push(0);
        assert!(matches!(
            Envelope::decode(&padded),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn decoder_reassembles_frames_fed_one_byte_at_a_time() {
        let envs = vec![
            sample(),
            Envelope {
                kind: MsgKind::Ack,
                round: 18,
                sender: HUB_SENDER,
                payload: vec![],
            },
            Envelope {
                kind: MsgKind::Rpc,
                round: 19,
                sender: 2,
                payload: (0u8..37).collect(),
            },
        ];
        let stream: Vec<u8> = envs.iter().flat_map(|e| e.encode()).collect();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(Envelope::decode(&frame).unwrap());
            }
        }
        assert_eq!(out, envs);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_handles_arbitrary_split_points_and_coalesced_reads() {
        let envs: Vec<Envelope> = (0..5)
            .map(|i| Envelope {
                kind: MsgKind::Flags,
                round: i,
                sender: i as u32,
                payload: vec![i as u8; i as usize * 3],
            })
            .collect();
        let stream: Vec<u8> = envs.iter().flat_map(|e| e.encode()).collect();
        // Try every single split point of the whole multi-frame stream: the
        // two chunks cover "partial frame then the rest" and "several frames
        // coalesced into one read" at once.
        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut out = Vec::new();
            for chunk in [&stream[..split], &stream[split..]] {
                dec.push(chunk);
                while let Some(frame) = dec.next_frame().unwrap() {
                    out.push(Envelope::decode(&frame).unwrap());
                }
            }
            assert_eq!(out, envs, "split at byte {split}");
            assert_eq!(dec.pending(), 0, "split at byte {split}");
        }
    }

    #[test]
    fn decoder_reports_truncated_tails_as_pending_bytes() {
        let frame = sample().encode();
        let mut dec = FrameDecoder::new();
        dec.push(&frame[..frame.len() - 1]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), frame.len() - 1);
    }

    #[test]
    fn decoder_rejects_implausible_length_prefixes() {
        let mut dec = FrameDecoder::new();
        dec.push(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::LengthMismatch { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_envelopes_round_trip_exactly(
            kind_tag in 0u8..8,
            round in 0u64..u64::MAX,
            sender in 0u32..u32::MAX,
            payload in proptest::collection::vec(0u8..255, 0..64),
        ) {
            let env = Envelope {
                kind: MsgKind::from_u8(kind_tag).unwrap(),
                round,
                sender,
                payload,
            };
            let frame = env.encode();
            prop_assert_eq!(frame.len(), frame_len(env.payload.len()));
            prop_assert_eq!(Envelope::decode(&frame), Ok(env));
        }

        // The incremental decoder must agree with the one-shot codec on any
        // frame sequence chopped at any points: same envelope stream out, and
        // a truncated tail is never silently swallowed.
        #[test]
        fn incremental_decoder_matches_one_shot_codec_under_any_chunking(
            tags in proptest::collection::vec(0u8..8, 1..8),
            rounds in proptest::collection::vec(0u64..1000, 1..8),
            senders in proptest::collection::vec(0u32..64, 1..8),
            pool in proptest::collection::vec(0u8..255, 0..64),
            payload_lens in proptest::collection::vec(0usize..48, 1..8),
            cuts in proptest::collection::vec(0usize..usize::MAX, 0..12),
            truncate in 0usize..8,
        ) {
            // Parallel draws stand in for a vec-of-structs strategy; fields
            // beyond the first are indexed cyclically.
            let envs: Vec<Envelope> = (0..tags.len())
                .map(|i| {
                    let len = payload_lens[i % payload_lens.len()].min(pool.len());
                    Envelope {
                        kind: MsgKind::from_u8(tags[i]).unwrap(),
                        round: rounds[i % rounds.len()],
                        sender: senders[i % senders.len()],
                        payload: pool[..len].to_vec(),
                    }
                })
                .collect();
            let mut stream: Vec<u8> = envs.iter().flat_map(|e| e.encode()).collect();
            let dropped = truncate.min(stream.len());
            stream.truncate(stream.len() - dropped);
            let expected: Vec<Envelope> = {
                // One-shot reference: walk whole frames off the byte string.
                let mut out = Vec::new();
                let mut rest = &stream[..];
                while rest.len() >= 4 {
                    let body = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
                    if rest.len() < 4 + body {
                        break;
                    }
                    out.push(Envelope::decode(&rest[..4 + body]).unwrap());
                    rest = &rest[4 + body..];
                }
                out
            };
            // Chop the stream at the drawn cut points (mapped into range).
            let mut points: Vec<usize> =
                cuts.iter().map(|&c| c % (stream.len() + 1)).collect();
            points.push(stream.len());
            points.sort_unstable();
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            let mut start = 0;
            for &end in &points {
                dec.push(&stream[start..end]);
                start = end;
                while let Some(frame) = dec.next_frame().unwrap() {
                    got.push(Envelope::decode(&frame).unwrap());
                }
            }
            prop_assert_eq!(&got, &expected);
            // Whatever the one-shot walk left over is exactly what the
            // incremental decoder reports as a truncated tail.
            let consumed: usize = expected.iter().map(|e| frame_len(e.payload.len())).sum();
            prop_assert_eq!(dec.pending(), stream.len() - consumed);
        }
    }
}
