//! Compact wire encoding for clocks.
//!
//! The benchmark harness measures piggyback overhead (experiment E1b/E4)
//! by actually serializing the control information each protocol attaches
//! to application messages. This module provides the LEB128-style varint
//! encoding used for that measurement, so the paper's claim that an FTVC
//! costs "O(n) timestamps plus log f bits of version per entry" is
//! checked against real encoded bytes rather than struct sizes.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::{Entry, Ftvc, ProcessId, VectorClock};

/// Error returned when decoding malformed clock bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended in the middle of a value.
    UnexpectedEnd,
    /// A varint ran past its maximum width.
    VarintOverflow,
    /// The decoded owner index was out of range.
    OwnerOutOfRange {
        /// Decoded owner index.
        owner: u64,
        /// Decoded number of components.
        len: u64,
    },
    /// A delta-encoded clock reconstructed against the wrong floor: the
    /// frame's embedded digest disagrees with the reconstructed clock's
    /// ([`crate::Ftvc::digest`]). Transports treat this as detected loss.
    DigestMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "buffer ended mid-value"),
            DecodeError::VarintOverflow => write!(f, "varint exceeded 64 bits"),
            DecodeError::OwnerOutOfRange { owner, len } => {
                write!(f, "owner index {owner} out of range for {len} components")
            }
            DecodeError::DigestMismatch => {
                write!(f, "delta clock digest mismatch (stale floor)")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Append `value` as a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decode a LEB128 varint.
///
/// # Errors
///
/// Returns [`DecodeError::UnexpectedEnd`] if the buffer is exhausted and
/// [`DecodeError::VarintOverflow`] if the encoding exceeds 64 bits.
pub fn get_varint(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(DecodeError::UnexpectedEnd);
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(DecodeError::VarintOverflow);
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Number of bytes `value` occupies as a varint.
pub fn varint_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    let bits = 64 - value.leading_zeros() as usize;
    bits.div_ceil(7)
}

/// Encode an FTVC: `n`, owner, then `(version, ts)` varint pairs.
pub fn encode_ftvc(clock: &Ftvc) -> Bytes {
    let mut buf = BytesMut::with_capacity(2 + clock.len() * 3);
    encode_ftvc_into(clock, &mut buf);
    buf.freeze()
}

/// [`encode_ftvc`] into a caller-supplied buffer (appended), so hot
/// paths can reuse one allocation across messages.
pub fn encode_ftvc_into(clock: &Ftvc, buf: &mut BytesMut) {
    put_varint(buf, clock.len() as u64);
    put_varint(buf, clock.owner().0 as u64);
    for (_, e) in clock.iter() {
        put_varint(buf, u64::from(e.version.0));
        put_varint(buf, e.ts);
    }
}

/// Decode an FTVC produced by [`encode_ftvc`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input.
pub fn decode_ftvc(mut bytes: Bytes) -> Result<Ftvc, DecodeError> {
    let n = get_varint(&mut bytes)?;
    let owner = get_varint(&mut bytes)?;
    if owner >= n {
        return Err(DecodeError::OwnerOutOfRange { owner, len: n });
    }
    let mut parts = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let version = get_varint(&mut bytes)? as u32;
        let ts = get_varint(&mut bytes)?;
        parts.push((version, ts));
    }
    Ok(Ftvc::from_parts(ProcessId(owner as u16), &parts))
}

/// Encoded size of an FTVC without materializing the buffer.
pub fn ftvc_wire_len(clock: &Ftvc) -> usize {
    varint_len(clock.len() as u64)
        + varint_len(clock.owner().0 as u64)
        + clock
            .iter()
            .map(|(_, e)| varint_len(u64::from(e.version.0)) + varint_len(e.ts))
            .sum::<usize>()
}

/// Encode an FTVC as a **v3 dirty-index delta** against a floor clock
/// the receiver already holds: only the components that differ from the
/// floor are transmitted, as explicit indices.
///
/// Wire format (v3 clock framing):
///
/// ```text
///     owner varint
///     changed-count varint
///     for each changed component, ascending: index-gap varint
///         (index minus previous index minus 1; first gap is the index
///         itself), version varint, ts varint
/// ```
///
/// The cost is O(Δ) bytes outright — at n = 256 a steady-state stamp
/// (one or two moved components) is ~6 bytes where the full encoding
/// is 500+.
///
/// `n` is not transmitted — the receiver recovers it from its own copy
/// of `floor`, which both sides must agree on out of band.
///
/// # Panics
///
/// Panics if `clock` and `floor` have different lengths.
pub fn encode_ftvc_dirty(clock: &Ftvc, floor: &Ftvc) -> Bytes {
    let mut buf = BytesMut::with_capacity(ftvc_dirty_wire_len(clock, floor));
    encode_ftvc_dirty_into(clock, floor, &mut buf);
    buf.freeze()
}

/// [`encode_ftvc_dirty`] into a caller-supplied buffer (appended), so
/// hot paths can reuse one allocation across messages.
///
/// # Panics
///
/// Panics if `clock` and `floor` have different lengths.
pub fn encode_ftvc_dirty_into(clock: &Ftvc, floor: &Ftvc, buf: &mut BytesMut) {
    assert_eq!(
        clock.len(),
        floor.len(),
        "cannot delta-encode against a floor of different system size"
    );
    put_varint(buf, clock.owner().0 as u64);
    let changed = clock
        .entries()
        .iter()
        .zip(floor.entries())
        .filter(|(c, f)| c != f)
        .count();
    put_varint(buf, changed as u64);
    let mut prev: Option<usize> = None;
    for (i, (c, _)) in clock
        .entries()
        .iter()
        .zip(floor.entries())
        .enumerate()
        .filter(|(_, (c, f))| c != f)
    {
        let gap = match prev {
            Some(p) => i - p - 1,
            None => i,
        };
        prev = Some(i);
        put_varint(buf, gap as u64);
        put_varint(buf, u64::from(c.version.0));
        put_varint(buf, c.ts);
    }
}

/// Decode an FTVC produced by [`encode_ftvc_dirty`] against the same
/// `floor` the encoder used. Unchanged components are copied from the
/// floor. Consumes exactly the encoding from the front of `bytes`, so
/// callers can keep decoding trailing frame content (digest, payload).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input, including
/// an owner or component index out of range for the floor's system size.
pub fn decode_ftvc_dirty(bytes: &mut Bytes, floor: &Ftvc) -> Result<Ftvc, DecodeError> {
    let n = floor.len();
    let owner = get_varint(&mut *bytes)?;
    if owner >= n as u64 {
        return Err(DecodeError::OwnerOutOfRange {
            owner,
            len: n as u64,
        });
    }
    let changed = get_varint(&mut *bytes)?;
    if changed > n as u64 {
        return Err(DecodeError::OwnerOutOfRange {
            owner: changed,
            len: n as u64,
        });
    }
    let mut parts: Vec<(u32, u64)> = floor
        .entries()
        .iter()
        .map(|e| (e.version.0, e.ts))
        .collect();
    let mut next = 0usize;
    for _ in 0..changed {
        let gap = get_varint(&mut *bytes)? as usize;
        let i = next + gap;
        if i >= n {
            return Err(DecodeError::OwnerOutOfRange {
                owner: i as u64,
                len: n as u64,
            });
        }
        let version = get_varint(&mut *bytes)? as u32;
        let ts = get_varint(&mut *bytes)?;
        parts[i] = (version, ts);
        next = i + 1;
    }
    Ok(Ftvc::from_parts(ProcessId(owner as u16), &parts))
}

/// Encoded size of [`encode_ftvc_dirty`] without materializing the
/// buffer.
///
/// # Panics
///
/// Panics if `clock` and `floor` have different lengths.
pub fn ftvc_dirty_wire_len(clock: &Ftvc, floor: &Ftvc) -> usize {
    assert_eq!(
        clock.len(),
        floor.len(),
        "cannot delta-encode against a floor of different system size"
    );
    let mut len = varint_len(clock.owner().0 as u64);
    let mut changed = 0usize;
    let mut prev: Option<usize> = None;
    for (i, (c, _)) in clock
        .entries()
        .iter()
        .zip(floor.entries())
        .enumerate()
        .filter(|(_, (c, f))| c != f)
    {
        let gap = match prev {
            Some(p) => i - p - 1,
            None => i,
        };
        prev = Some(i);
        changed += 1;
        len += varint_len(gap as u64) + varint_len(u64::from(c.version.0)) + varint_len(c.ts);
    }
    len + varint_len(changed as u64)
}

/// Encoded size of a v3 dirty-index frame carrying exactly the listed
/// component indices of `clock` — the O(Δ) price the engine's send
/// accounting charges per stamp, computed without touching the other
/// `n - Δ` components (and without materializing a floor clock).
///
/// `dirty` must be ascending and in range; the result equals
/// [`ftvc_dirty_wire_len`] whenever `dirty` is exactly the set of
/// components differing from the floor.
pub fn ftvc_dirty_wire_len_at(clock: &Ftvc, dirty: &[u16]) -> usize {
    let entries = clock.entries();
    let mut len = varint_len(clock.owner().0 as u64) + varint_len(dirty.len() as u64);
    let mut prev: Option<usize> = None;
    for &i in dirty {
        let i = i as usize;
        let gap = match prev {
            Some(p) => i - p - 1,
            None => i,
        };
        prev = Some(i);
        let e = entries[i];
        len += varint_len(gap as u64) + varint_len(u64::from(e.version.0)) + varint_len(e.ts);
    }
    len
}

/// Encode a plain vector clock: `n`, owner, then `ts` varints.
pub fn encode_vector(clock: &VectorClock) -> Bytes {
    let mut buf = BytesMut::with_capacity(2 + clock.len() * 2);
    put_varint(&mut buf, clock.len() as u64);
    put_varint(&mut buf, clock.owner().0 as u64);
    for &s in clock.stamps() {
        put_varint(&mut buf, s);
    }
    buf.freeze()
}

/// Decode a vector clock produced by [`encode_vector`].
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncated or malformed input.
pub fn decode_vector(mut bytes: Bytes) -> Result<VectorClock, DecodeError> {
    let n = get_varint(&mut bytes)?;
    let owner = get_varint(&mut bytes)?;
    if owner >= n {
        return Err(DecodeError::OwnerOutOfRange { owner, len: n });
    }
    let mut stamps = Vec::with_capacity(n as usize);
    for _ in 0..n {
        stamps.push(get_varint(&mut bytes)?);
    }
    Ok(VectorClock::from_stamps(ProcessId(owner as u16), stamps))
}

/// Encoded size of a single token: one `(process, version, ts)` entry,
/// matching the paper's "size of a token is just one entry of the vector
/// clock" (Section 6.9).
pub fn token_wire_len(p: ProcessId, entry: Entry) -> usize {
    varint_len(p.0 as u64) + varint_len(u64::from(entry.version.0)) + varint_len(entry.ts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "len mismatch for {v}");
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
            assert!(!bytes.has_remaining());
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let mut bytes = Bytes::from_static(&[0x80]);
        assert_eq!(get_varint(&mut bytes), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn overlong_varint_errors() {
        let mut bytes = Bytes::from_static(&[0xff; 11]);
        assert_eq!(get_varint(&mut bytes), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn ftvc_roundtrip() {
        let c = Ftvc::from_parts(ProcessId(1), &[(0, 5), (3, 0), (1, 200)]);
        let bytes = encode_ftvc(&c);
        assert_eq!(bytes.len(), ftvc_wire_len(&c));
        let back = decode_ftvc(bytes).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn vector_roundtrip() {
        let c = VectorClock::from_stamps(ProcessId(2), vec![9, 0, 128, 7]);
        let back = decode_vector(encode_vector(&c)).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn owner_out_of_range_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 2); // n = 2
        put_varint(&mut buf, 5); // owner = 5 (invalid)
        let err = decode_ftvc(buf.freeze()).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::OwnerOutOfRange { owner: 5, len: 2 }
        ));
    }

    #[test]
    fn fresh_clock_encodes_small() {
        // A fresh 8-process FTVC: all versions/ts fit in one byte each.
        let c = Ftvc::new(ProcessId(0), 8);
        assert_eq!(ftvc_wire_len(&c), 2 + 8 * 2);
    }

    #[test]
    fn dirty_roundtrip_mixed_changes() {
        let floor = Ftvc::from_parts(ProcessId(0), &[(0, 5), (3, 0), (1, 200), (0, 0)]);
        let clock = Ftvc::from_parts(ProcessId(2), &[(0, 5), (3, 7), (1, 200), (2, 1)]);
        let mut bytes = encode_ftvc_dirty(&clock, &floor);
        assert_eq!(bytes.len(), ftvc_dirty_wire_len(&clock, &floor));
        assert_eq!(bytes.len(), ftvc_dirty_wire_len_at(&clock, &[1, 3]));
        let back = decode_ftvc_dirty(&mut bytes, &floor).unwrap();
        assert_eq!(back, clock);
        assert_eq!(back.digest(), clock.digest());
        assert!(!bytes.has_remaining(), "decode must consume the encoding");
    }

    #[test]
    fn dirty_len_is_o_delta_not_o_n() {
        // At n = 256 with one moved component, v3 must be a handful of
        // bytes, far below the full encoding.
        let n = 256;
        let floor_parts: Vec<(u32, u64)> = (0..n).map(|i| (1, 1_000 + i as u64)).collect();
        let mut clock_parts = floor_parts.clone();
        clock_parts[7].1 += 1;
        let floor = Ftvc::from_parts(ProcessId(7), &floor_parts);
        let clock = Ftvc::from_parts(ProcessId(7), &clock_parts);
        let v3 = ftvc_dirty_wire_len(&clock, &floor);
        let full = ftvc_wire_len(&clock);
        assert!(v3 <= 8, "v3 frame should be a handful of bytes, got {v3}");
        assert!(
            v3 < full / 4,
            "v3 ({v3}B) should be far below full ({full}B)"
        );
    }

    #[test]
    fn truncated_dirty_is_an_error_not_a_panic() {
        let floor = Ftvc::from_parts(ProcessId(0), &[(0, 0), (0, 0), (0, 0)]);
        let clock = Ftvc::from_parts(ProcessId(1), &[(0, 300), (2, 5), (0, 900)]);
        let bytes = encode_ftvc_dirty(&clock, &floor);
        for cut in 0..bytes.len() {
            let mut truncated = Bytes::from(bytes.as_slice()[..cut].to_vec());
            assert!(
                decode_ftvc_dirty(&mut truncated, &floor).is_err(),
                "prefix of length {cut} decoded successfully"
            );
        }
    }

    #[test]
    fn dirty_rejects_out_of_range_indices() {
        let floor = Ftvc::from_parts(ProcessId(0), &[(0, 0), (0, 0)]);
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 1); // owner = 1
        put_varint(&mut buf, 1); // one changed component
        put_varint(&mut buf, 7); // index 7, floor says n = 2
        put_varint(&mut buf, 0);
        put_varint(&mut buf, 1);
        assert!(decode_ftvc_dirty(&mut buf.freeze(), &floor).is_err());

        let mut buf = BytesMut::new();
        put_varint(&mut buf, 9); // owner = 9, floor says n = 2
        put_varint(&mut buf, 0);
        let err = decode_ftvc_dirty(&mut buf.freeze(), &floor).unwrap_err();
        assert!(matches!(
            err,
            DecodeError::OwnerOutOfRange { owner: 9, len: 2 }
        ));
    }

    #[test]
    fn token_len_is_single_entry() {
        let len = token_wire_len(ProcessId(3), Entry::new(1, 300));
        // process(1) + version(1) + ts(2 bytes for 300)
        assert_eq!(len, 4);
    }
}
