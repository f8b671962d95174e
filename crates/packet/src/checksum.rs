//! Internet (ones' complement) checksum, as used by IPv4, TCP, UDP and ICMP:
//! the full sum for building and verifying, the RFC 1624 incremental update,
//! and the header-field rewrites — shared by the interpreted and the
//! compiled actions — that step every checksum covering the field.

use crate::parser::ParsedHeaders;

/// Computes the 16-bit ones' complement of the ones' complement sum of
/// `data`, i.e. the value to place in (or verify against) a checksum field.
///
/// When the buffer already contains a valid checksum the result is `0`.
pub fn ones_complement(data: &[u8]) -> u16 {
    !fold(sum(data, 0))
}

/// Computes the checksum of a TCP/UDP segment including the IPv4
/// pseudo-header (source, destination, protocol, segment length).
pub fn pseudo_header_checksum(src: [u8; 4], dst: [u8; 4], proto: u8, segment: &[u8]) -> u16 {
    let mut acc = 0u32;
    acc = sum(&src, acc);
    acc = sum(&dst, acc);
    acc += u32::from(proto);
    acc += segment.len() as u32;
    acc = sum(segment, acc);
    !fold(acc)
}

/// RFC 1624 eqn. 3, `HC' = ~(~HC + ~m + m')`: the checksum after one covered
/// 16-bit word changed from `old` to `new`. Equal to re-summing when `check`
/// was valid, and — unlike re-summing — a corrupted `check` stays corrupted
/// by the same amount instead of being laundered into a valid one.
#[inline]
pub fn update16(check: u16, old: u16, new: u16) -> u16 {
    !fold(u32::from(!check) + u32::from(!old) + u32::from(new))
}

/// [`update16`] for a covered 32-bit value (an IPv4 address in the header or
/// the pseudo-header) on a 16-bit boundary.
#[inline]
pub fn update32(check: u16, old: u32, new: u32) -> u16 {
    let [old_hi, old_lo] = [!(old >> 16) as u16, !old as u16];
    !fold(u32::from(!check) + u32::from(old_hi) + u32::from(old_lo) + (new >> 16) + (new & 0xffff))
}

/// Applies `update` to the checksum field at `frame[at..at + 2]` (a frame
/// too short to hold it is left alone).
#[inline]
fn patch(frame: &mut [u8], at: usize, update: impl FnOnce(u16) -> u16) {
    if let Some(field) = frame.get_mut(at..at + 2) {
        let check = update(u16::from_be_bytes([field[0], field[1]]));
        field.copy_from_slice(&check.to_be_bytes());
    }
}

/// Applies `update` to the TCP or UDP checksum of the frame `headers`
/// describes, after a pseudo-header or segment word changed; other
/// transports carry no such checksum. A UDP checksum of 0 means "none" and
/// stays 0; one that comes out as 0 is sent as 0xffff (RFC 768).
#[inline]
fn patch_l4(frame: &mut [u8], headers: &ParsedHeaders, update: impl FnOnce(u16) -> u16) {
    let l4 = usize::from(headers.l4_offset);
    if headers.has_tcp() {
        patch(frame, l4 + 16, update);
    } else if headers.has_udp() {
        patch(frame, l4 + 6, |check| match check {
            0 => 0,
            check => match update(check) {
                0 => 0xffff,
                updated => updated,
            },
        });
    }
}

/// Writes byte `offset` of the IPv4 header at `l3` (the TOS or TTL byte) and
/// steps the header checksum by the change of the 16-bit word the byte sits
/// in. The caller has checked that `headers` found the IPv4 header.
#[inline]
pub fn rewrite_ipv4_byte(frame: &mut [u8], l3: usize, offset: usize, byte: u8) {
    let word = l3 + (offset & !1);
    let old = u16::from_be_bytes([frame[word], frame[word + 1]]);
    frame[l3 + offset] = byte;
    let new = u16::from_be_bytes([frame[word], frame[word + 1]]);
    patch(frame, l3 + 10, |check| update16(check, old, new));
}

/// Writes the IPv4 source (`offset` 12) or destination (16) address of the
/// frame `headers` describes and steps both checksums that cover it: the
/// header's and, through the pseudo-header, TCP's or UDP's. The caller has
/// checked that `headers` found the IPv4 header.
#[inline]
pub fn rewrite_ipv4_addr(frame: &mut [u8], headers: &ParsedHeaders, offset: usize, addr: u32) {
    let l3 = usize::from(headers.l3_offset);
    let at = l3 + offset;
    let old = u32::from_be_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]]);
    frame[at..at + 4].copy_from_slice(&addr.to_be_bytes());
    let step = |check| update32(check, old, addr);
    patch(frame, l3 + 10, step);
    patch_l4(frame, headers, step);
}

/// Writes the TCP/UDP source (`offset` 0) or destination (2) port of the
/// frame `headers` describes and steps the transport checksum. The caller
/// has checked that `headers` found a TCP or UDP header.
#[inline]
pub fn rewrite_l4_port(frame: &mut [u8], headers: &ParsedHeaders, offset: usize, port: u16) {
    let at = usize::from(headers.l4_offset) + offset;
    let old = u16::from_be_bytes([frame[at], frame[at + 1]]);
    frame[at..at + 2].copy_from_slice(&port.to_be_bytes());
    patch_l4(frame, headers, |check| update16(check, old, port));
}

/// Accumulates 16-bit big-endian words of `data` onto `acc` without folding.
fn sum(data: &[u8], mut acc: u32) -> u32 {
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        acc += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        acc += u32::from(u16::from_be_bytes([*last, 0]));
    }
    acc
}

/// Folds the 32-bit accumulator into 16 bits with end-around carry: two
/// steps bring any `u32` under 0x1_0000.
#[inline]
fn fold(acc: u32) -> u16 {
    let acc = (acc & 0xffff) + (acc >> 16);
    ((acc & 0xffff) + (acc >> 16)) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Example bytes from RFC 1071 §3: 00 01 f2 03 f4 f5 f6 f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x2ddf0 -> folded 0xddf2 -> checksum = !0xddf2 = 0x220d.
        assert_eq!(ones_complement(&data), 0x220d);
    }

    #[test]
    fn odd_length_padded_with_zero() {
        assert_eq!(ones_complement(&[0xff]), !0xff00);
    }

    #[test]
    fn empty_buffer() {
        assert_eq!(ones_complement(&[]), 0xffff);
    }

    #[test]
    fn checksum_of_checksummed_buffer_is_zero() {
        let mut data = vec![
            0x45, 0x00, 0x00, 0x28, 0xab, 0xcd, 0x40, 0x00, 0x40, 0x06, 0, 0, 10, 0, 0, 1, 192, 0,
            2, 1,
        ];
        let csum = ones_complement(&data);
        data[10..12].copy_from_slice(&csum.to_be_bytes());
        assert_eq!(ones_complement(&data), 0);
    }

    #[test]
    fn pseudo_header_includes_addresses() {
        let seg = [0u8; 8];
        let a = pseudo_header_checksum([10, 0, 0, 1], [10, 0, 0, 2], 17, &seg);
        let b = pseudo_header_checksum([10, 0, 0, 1], [10, 0, 0, 3], 17, &seg);
        assert_ne!(a, b);
    }

    #[test]
    fn incremental_update_equals_resumming_and_keeps_corruption() {
        let mut data = [
            0x45, 0x00, 0x00, 0x28, 0xab, 0xcd, 0x40, 0x00, 0x40, 0x06, 0, 0, 10, 0, 0, 1, 192, 0,
            2, 1,
        ];
        let valid = ones_complement(&data);
        // A 32-bit rewrite (source address) and a 16-bit one (TTL word).
        data[12..16].copy_from_slice(&0xcb00_7109u32.to_be_bytes());
        data[8] = 0x3f;
        let resummed = ones_complement(&data);
        let stepped = update16(update32(valid, 0x0a00_0001, 0xcb00_7109), 0x4006, 0x3f06);
        assert_eq!(stepped, resummed);
        // A checksum that was off by 0x0100 before is off by 0x0100 after.
        let corrupt = valid.wrapping_add(0x0100);
        let stepped = update16(update32(corrupt, 0x0a00_0001, 0xcb00_7109), 0x4006, 0x3f06);
        assert_eq!(stepped, resummed.wrapping_add(0x0100));
    }

    #[test]
    fn udp_checksum_zero_stays_zero_and_never_becomes_zero() {
        use crate::builder::PacketBuilder;
        use crate::parser::{parse, ParseDepth};
        let mut frame = PacketBuilder::udp().build().data().to_vec();
        let headers = parse(&frame, ParseDepth::L4);
        let at = usize::from(headers.l4_offset) + 6;
        frame[at..at + 2].copy_from_slice(&[0, 0]);
        patch_l4(&mut frame, &headers, |c| update16(c, 1, 2));
        assert_eq!(frame[at..at + 2], [0, 0], "no checksum stays no checksum");
        frame[at..at + 2].copy_from_slice(&[0x12, 0x34]);
        patch_l4(&mut frame, &headers, |_| 0);
        assert_eq!(
            frame[at..at + 2],
            [0xff, 0xff],
            "RFC 768: 0 is sent as 0xffff"
        );
    }
}
