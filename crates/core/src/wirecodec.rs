//! Byte-level codec for [`Wire`] messages.
//!
//! The simulator moves `Wire<M>` values between actors as in-memory
//! clones; a real network runtime (the `dg-netrun` crate) needs bytes.
//! This module encodes every protocol message with the same LEB128
//! varint conventions as [`dg_ftvc::wire`] — so the piggyback-overhead
//! numbers measured by the benchmarks are exactly the bytes that travel
//! over real sockets.
//!
//! Application payloads are encoded through the [`Payload`] trait;
//! implementations are provided for the integer types the workload apps
//! use plus `Vec<u8>` for opaque blobs.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dg_ftvc::wire::{decode_ftvc, encode_ftvc_into, get_varint, put_varint, DecodeError};
use dg_ftvc::{Entry, ProcessId, Version};

use crate::message::{Envelope, Token, Wire};

/// Error returned when decoding a malformed [`Wire`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The frame's leading tag byte named no known message kind.
    BadTag(u8),
    /// The buffer ended in the middle of a value.
    UnexpectedEnd,
    /// A nested clock failed to decode.
    Clock(DecodeError),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            CodecError::UnexpectedEnd => write!(f, "frame ended mid-value"),
            CodecError::Clock(e) => write!(f, "clock decode failed: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<DecodeError> for CodecError {
    fn from(e: DecodeError) -> CodecError {
        match e {
            DecodeError::UnexpectedEnd => CodecError::UnexpectedEnd,
            other => CodecError::Clock(other),
        }
    }
}

/// An application payload that can cross a real network.
///
/// Implementations must round-trip: `decode(encode(x)) == x`. The
/// simulator never serializes, so only runtimes that move bytes (and
/// the codec tests) exercise this.
pub trait Payload: Sized + Clone {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode one value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    fn decode(buf: &mut Bytes) -> Result<Self, CodecError>;
}

impl Payload for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self);
    }
    fn decode(buf: &mut Bytes) -> Result<u64, CodecError> {
        Ok(get_varint(buf)?)
    }
}

impl Payload for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, u64::from(*self));
    }
    fn decode(buf: &mut Bytes) -> Result<u32, CodecError> {
        Ok(get_varint(buf)? as u32)
    }
}

impl Payload for Vec<u8> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        buf.put_slice(self);
    }
    fn decode(buf: &mut Bytes) -> Result<Vec<u8>, CodecError> {
        let len = get_varint(buf)? as usize;
        if buf.remaining() < len {
            return Err(CodecError::UnexpectedEnd);
        }
        let mut out = vec![0u8; len];
        buf.copy_to_slice(&mut out);
        Ok(out)
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<(A, B), CodecError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

const TAG_APP: u8 = 0;
const TAG_TOKEN: u8 = 1;
const TAG_TOKEN_ACK: u8 = 2;
const TAG_RESEND: u8 = 3;
const TAG_FRONTIER: u8 = 4;
const TAG_STABLE: u8 = 5;
/// An `App` frame whose clock is delta-encoded against a per-channel
/// floor the receiver already holds (the v3 dirty-index encoding of
/// [`dg_ftvc::wire::encode_ftvc_dirty`]). Only the transport layer sees
/// this tag: `dg-netrun` peers negotiate floors per TCP channel, and
/// [`decode_app_delta`] reconstitutes a plain [`Wire::App`] before the
/// engine ever looks at the frame.
const TAG_APP_DELTA: u8 = 6;
const TAG_FRONTIER_VEC: u8 = 7;
const TAG_STABILITY_QUERY: u8 = 8;

/// Classify an encoded frame by its leading tag byte without decoding
/// it: `true` for control-plane messages (tokens, acks, frontier
/// gossip), `false` for application payloads (`App`, `AppDelta`,
/// `Resend`). The protocol repairs control loss itself (reliable
/// tokens, periodic gossip) but assumes reliable channels for
/// application frames, so fault injectors use this to target only the
/// traffic class whose loss the protocol is specified to mask.
pub fn is_control_frame(first_byte: u8) -> bool {
    !matches!(first_byte, TAG_APP | TAG_RESEND | TAG_APP_DELTA)
}

/// [`Wire::is_background`] from the leading tag byte, without decoding:
/// `true` for stability gossip and queries — facts and hints that are
/// repeated or repaired by the next gossip round, so a transport may
/// drop them (a runtime does, for a process that is down).
pub fn is_background_frame(first_byte: u8) -> bool {
    matches!(
        first_byte,
        TAG_FRONTIER | TAG_STABLE | TAG_FRONTIER_VEC | TAG_STABILITY_QUERY
    )
}

/// `true` iff an encoded frame is a delta App frame, which must be
/// decoded with [`decode_app_delta`] against the channel's floor rather
/// than [`decode_wire`].
pub fn is_app_delta_frame(first_byte: u8) -> bool {
    first_byte == TAG_APP_DELTA
}

fn put_entry(buf: &mut BytesMut, entry: Entry) {
    put_varint(buf, u64::from(entry.version.0));
    put_varint(buf, entry.ts);
}

fn get_entry(buf: &mut Bytes) -> Result<Entry, CodecError> {
    let version = get_varint(buf)? as u32;
    let ts = get_varint(buf)?;
    Ok(Entry {
        version: Version(version),
        ts,
    })
}

fn put_clock(buf: &mut BytesMut, clock: &dg_ftvc::Ftvc) {
    encode_ftvc_into(clock, buf);
}

fn put_envelope<M: Payload>(buf: &mut BytesMut, env: &Envelope<M>) {
    put_clock(buf, &env.clock);
    env.payload.encode(buf);
}

fn get_envelope<M: Payload>(buf: &mut Bytes) -> Result<Envelope<M>, CodecError> {
    // `decode_ftvc` consumes from a shared view: clone the handle, let it
    // advance, and re-slice. Cheaper: decode in place via the varint API.
    let clock = {
        let n = get_varint(buf)?;
        let owner = get_varint(buf)?;
        let mut parts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let version = get_varint(buf)? as u32;
            let ts = get_varint(buf)?;
            parts.push((version, ts));
        }
        if owner >= n {
            return Err(CodecError::Clock(DecodeError::OwnerOutOfRange {
                owner,
                len: n,
            }));
        }
        dg_ftvc::Ftvc::from_parts(ProcessId(owner as u16), &parts)
    };
    let payload = M::decode(buf)?;
    Ok(Envelope { payload, clock })
}

/// Encode one [`Wire`] message to bytes (no length prefix; framing is the
/// transport's job).
pub fn encode_wire<M: Payload>(wire: &Wire<M>) -> Bytes {
    let mut buf = BytesMut::with_capacity(64);
    encode_wire_into(wire, &mut buf);
    buf.freeze()
}

/// [`encode_wire`] into a caller-supplied buffer (appended). Transports
/// that frame many messages per write reuse one buffer across an entire
/// batch instead of allocating per message (see `dg-netrun`'s pooled
/// frame buffers).
pub fn encode_wire_into<M: Payload>(wire: &Wire<M>, buf: &mut BytesMut) {
    match wire {
        Wire::App(env) => {
            buf.put_u8(TAG_APP);
            put_envelope(buf, env);
        }
        Wire::Resend(env) => {
            buf.put_u8(TAG_RESEND);
            put_envelope(buf, env);
        }
        Wire::Token(token) => {
            buf.put_u8(TAG_TOKEN);
            put_varint(buf, u64::from(token.from.0));
            put_entry(buf, token.entry);
            match &token.full_clock {
                Some(clock) => {
                    buf.put_u8(1);
                    put_clock(buf, clock);
                }
                None => buf.put_u8(0),
            }
        }
        Wire::TokenAck(entry) => {
            buf.put_u8(TAG_TOKEN_ACK);
            put_entry(buf, *entry);
        }
        Wire::Frontier(p, entry) => {
            buf.put_u8(TAG_FRONTIER);
            put_varint(buf, u64::from(p.0));
            put_entry(buf, *entry);
        }
        Wire::FrontierVec(v) => {
            buf.put_u8(TAG_FRONTIER_VEC);
            put_varint(buf, v.len() as u64);
            for entry in v {
                put_entry(buf, *entry);
            }
        }
        Wire::StableClock(p, clock) => {
            buf.put_u8(TAG_STABLE);
            put_varint(buf, u64::from(p.0));
            put_clock(buf, clock);
        }
        Wire::StabilityQuery(entry) => {
            buf.put_u8(TAG_STABILITY_QUERY);
            put_entry(buf, *entry);
        }
    }
}

/// Encode an `App` envelope as a delta frame against `floor` — the last
/// full clock the receiver acknowledged holding for this channel. The
/// frame carries the v3 dirty-index stamp (O(Δ) components), the full
/// clock's 8-byte digest for self-validation, and the payload. Use only
/// when sender and receiver agree on `floor`; [`decode_app_delta`]
/// rejects (as [`CodecError::Clock`]) any frame whose reconstructed
/// clock fails the digest check, which the transport treats as detected
/// loss and repairs via the protocol's own retransmission layer.
pub fn encode_app_delta<M: Payload>(env: &Envelope<M>, floor: &dg_ftvc::Ftvc, buf: &mut BytesMut) {
    buf.put_u8(TAG_APP_DELTA);
    dg_ftvc::wire::encode_ftvc_dirty_into(&env.clock, floor, buf);
    buf.put_slice(&env.clock.digest().to_le_bytes());
    env.payload.encode(buf);
}

/// Decode a delta `App` frame produced by [`encode_app_delta`] against
/// the same `floor`, reconstituting a plain [`Wire::App`].
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated/malformed input, and
/// [`CodecError::Clock`] with [`DecodeError::DigestMismatch`] when the
/// reconstructed clock's digest disagrees with the one stamped into the
/// frame (sender and receiver disagreed about the floor — the caller
/// must drop the frame and fall back to full-frame exchange).
pub fn decode_app_delta<M: Payload>(
    mut bytes: Bytes,
    floor: &dg_ftvc::Ftvc,
) -> Result<Wire<M>, CodecError> {
    if !bytes.has_remaining() {
        return Err(CodecError::UnexpectedEnd);
    }
    let tag = bytes.get_u8();
    if tag != TAG_APP_DELTA {
        return Err(CodecError::BadTag(tag));
    }
    let clock = dg_ftvc::wire::decode_ftvc_dirty(&mut bytes, floor)?;
    if bytes.remaining() < 8 {
        return Err(CodecError::UnexpectedEnd);
    }
    let mut digest_bytes = [0u8; 8];
    bytes.copy_to_slice(&mut digest_bytes);
    let digest = u64::from_le_bytes(digest_bytes);
    if digest != clock.digest() {
        return Err(CodecError::Clock(DecodeError::DigestMismatch));
    }
    let payload = M::decode(&mut bytes)?;
    Ok(Wire::App(Envelope { payload, clock }))
}

/// Decode one [`Wire`] message produced by [`encode_wire`].
///
/// # Errors
///
/// Returns a [`CodecError`] on truncated or malformed input.
pub fn decode_wire<M: Payload>(mut bytes: Bytes) -> Result<Wire<M>, CodecError> {
    if !bytes.has_remaining() {
        return Err(CodecError::UnexpectedEnd);
    }
    let tag = bytes.get_u8();
    match tag {
        TAG_APP => Ok(Wire::App(get_envelope(&mut bytes)?)),
        TAG_RESEND => Ok(Wire::Resend(get_envelope(&mut bytes)?)),
        TAG_TOKEN => {
            let from = ProcessId(get_varint(&mut bytes)? as u16);
            let entry = get_entry(&mut bytes)?;
            if !bytes.has_remaining() {
                return Err(CodecError::UnexpectedEnd);
            }
            let full_clock = match bytes.get_u8() {
                0 => None,
                _ => Some(decode_ftvc(bytes)?),
            };
            Ok(Wire::Token(Token {
                from,
                entry,
                full_clock,
            }))
        }
        TAG_TOKEN_ACK => Ok(Wire::TokenAck(get_entry(&mut bytes)?)),
        TAG_FRONTIER => {
            let p = ProcessId(get_varint(&mut bytes)? as u16);
            let entry = get_entry(&mut bytes)?;
            Ok(Wire::Frontier(p, entry))
        }
        TAG_FRONTIER_VEC => {
            let len = get_varint(&mut bytes)? as usize;
            let mut v = Vec::with_capacity(len.min(1024));
            for _ in 0..len {
                v.push(get_entry(&mut bytes)?);
            }
            Ok(Wire::FrontierVec(v))
        }
        TAG_STABLE => {
            let p = ProcessId(get_varint(&mut bytes)? as u16);
            let clock = decode_ftvc(bytes)?;
            Ok(Wire::StableClock(p, clock))
        }
        TAG_STABILITY_QUERY => Ok(Wire::StabilityQuery(get_entry(&mut bytes)?)),
        other => Err(CodecError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_ftvc::Ftvc;

    fn clock() -> Ftvc {
        Ftvc::from_parts(ProcessId(1), &[(0, 4), (1, 700), (0, 0), (2, 31)])
    }

    fn roundtrip(wire: Wire<u64>) {
        let bytes = encode_wire(&wire);
        let back: Wire<u64> = decode_wire(bytes).expect("decodes");
        assert_eq!(back, wire);
    }

    #[test]
    fn app_roundtrip() {
        roundtrip(Wire::App(Envelope {
            payload: 123_456,
            clock: clock(),
        }));
    }

    #[test]
    fn resend_roundtrip() {
        roundtrip(Wire::Resend(Envelope {
            payload: 0,
            clock: clock(),
        }));
    }

    #[test]
    fn token_roundtrip_with_and_without_clock() {
        roundtrip(Wire::Token(Token {
            from: ProcessId(2),
            entry: Entry::new(3, 999),
            full_clock: None,
        }));
        roundtrip(Wire::Token(Token {
            from: ProcessId(2),
            entry: Entry::new(3, 999),
            full_clock: Some(clock()),
        }));
    }

    #[test]
    fn ack_and_frontier_roundtrip() {
        roundtrip(Wire::TokenAck(Entry::new(1, 88)));
        roundtrip(Wire::Frontier(ProcessId(3), Entry::new(0, 12_000)));
    }

    #[test]
    fn stable_clock_roundtrip_and_classification() {
        let wire = Wire::StableClock(ProcessId(2), clock());
        roundtrip(wire.clone());
        let bytes = encode_wire(&wire);
        let first = bytes.clone().get_u8();
        assert!(
            is_control_frame(first),
            "stable-clock gossip is control-plane traffic"
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_wire::<u64>(bytes.slice(0..cut)).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn frontier_vec_roundtrip_and_classification() {
        let wire: Wire<u64> =
            Wire::FrontierVec(vec![Entry::new(0, 4), Entry::new(1, 700), Entry::new(2, 0)]);
        roundtrip(match wire.clone() {
            Wire::FrontierVec(v) => Wire::FrontierVec(v),
            _ => unreachable!(),
        });
        let bytes = encode_wire(&wire);
        assert!(
            is_control_frame(bytes.clone().get_u8()),
            "aggregated frontier gossip is control-plane traffic"
        );
    }

    #[test]
    fn stability_query_roundtrip_and_classification() {
        let wire = Wire::StabilityQuery(Entry::new(3, 70_000));
        roundtrip(wire.clone());
        let bytes = encode_wire(&wire);
        assert!(
            is_control_frame(bytes.clone().get_u8()),
            "stability queries are control-plane traffic"
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_wire::<u64>(bytes.slice(0..cut)).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn byte_classifier_agrees_with_is_background() {
        let env = Envelope {
            payload: 1u64,
            clock: clock(),
        };
        let e = Entry::new(1, 2);
        for wire in [
            Wire::App(env.clone()),
            Wire::Resend(env),
            Wire::Token(Token {
                from: ProcessId(0),
                entry: e,
                full_clock: None,
            }),
            Wire::TokenAck(e),
            Wire::Frontier(ProcessId(0), e),
            Wire::FrontierVec(vec![e]),
            Wire::StableClock(ProcessId(1), clock()),
            Wire::StabilityQuery(e),
        ] {
            let tag = encode_wire(&wire).as_slice()[0];
            assert_eq!(is_background_frame(tag), wire.is_background(), "{wire:?}");
        }
    }

    #[test]
    fn app_delta_roundtrips_against_shared_floor() {
        let floor = clock();
        let mut cur = clock();
        let _ = cur.stamp_for_send();
        let env = Envelope {
            payload: 777u64,
            clock: cur.clone(),
        };
        let mut buf = BytesMut::new();
        encode_app_delta(&env, &floor, &mut buf);
        let full = encode_wire(&Wire::App(env.clone())).len();
        // tag + O(Δ) stamp + 8-byte digest + payload: with one moved
        // component out of four this already undercuts the full frame;
        // at scale (n = 64+) the gap is the whole point.
        assert!(buf.len() < full + 8);
        let back: Wire<u64> = decode_app_delta(buf.freeze(), &floor).expect("decodes");
        assert_eq!(back, Wire::App(env));
    }

    #[test]
    fn app_delta_detects_floor_disagreement() {
        let floor = clock();
        let mut cur = clock();
        let _ = cur.stamp_for_send();
        let env = Envelope {
            payload: 1u64,
            clock: cur,
        };
        let mut buf = BytesMut::new();
        encode_app_delta(&env, &floor, &mut buf);
        // Receiver reconstructs against a *different* floor: the digest
        // check must reject the frame instead of delivering a wrong clock.
        let wrong = Ftvc::from_parts(ProcessId(1), &[(0, 4), (1, 700), (0, 9), (2, 31)]);
        let err = decode_app_delta::<u64>(buf.freeze(), &wrong).unwrap_err();
        assert_eq!(err, CodecError::Clock(DecodeError::DigestMismatch));
    }

    #[test]
    fn app_delta_truncation_is_an_error_not_a_panic() {
        let floor = clock();
        let mut cur = clock();
        let _ = cur.stamp_for_send();
        let env = Envelope {
            payload: 5u64,
            clock: cur,
        };
        let mut buf = BytesMut::new();
        encode_app_delta(&env, &floor, &mut buf);
        let bytes = buf.freeze();
        assert!(
            !is_control_frame(bytes.clone().get_u8()),
            "delta app frames are data"
        );
        for cut in 0..bytes.len() {
            assert!(
                decode_app_delta::<u64>(bytes.slice(0..cut), &floor).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn tuple_and_blob_payloads_roundtrip() {
        let wire = Wire::App(Envelope {
            payload: (7u32, vec![1u8, 2, 3, 255]),
            clock: clock(),
        });
        let back: Wire<(u32, Vec<u8>)> = decode_wire(encode_wire(&wire)).unwrap();
        assert_eq!(back, wire);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode_wire(&Wire::App(Envelope {
            payload: 9u64,
            clock: clock(),
        }));
        for cut in 0..bytes.len() {
            let truncated = bytes.slice(0..cut);
            assert!(
                decode_wire::<u64>(truncated).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let err = decode_wire::<u64>(Bytes::from_static(&[9, 0, 0])).unwrap_err();
        assert_eq!(err, CodecError::BadTag(9));
    }

    #[test]
    fn app_frame_overhead_matches_piggyback_accounting() {
        let env = Envelope {
            payload: 5u64,
            clock: clock(),
        };
        let bytes = encode_wire(&Wire::App(env.clone()));
        // tag + clock + payload(1 byte varint)
        assert_eq!(bytes.len(), 1 + env.piggyback_bytes() + 1);
    }
}
