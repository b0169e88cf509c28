//! Cross-device erasure math: parity generation and reconstruction.
//!
//! The device-local kernels (`assasin_kernels::raid`) compute RAID4/6
//! syndromes *inside* one SSD as a streaming workload. Promoted to
//! array scope, the same math protects chunks across devices: `P = Σ
//! d_i` and `Q = Σ g^i · d_i` over GF(256) with the field and generator
//! the kernels use (`assasin_kernels::gf256`, polynomial 0x11D,
//! `g = 2`). The coefficient index `i` is the chunk's position within
//! its stripe, matching the kernels' stream order — the unit tests pin
//! this module byte-for-byte against `raid4_golden`/`raid6_golden`.
//!
//! Streams of uneven length (a short final stripe member) are
//! zero-padded to the stripe length before coding, mirroring the
//! zero-padding flash pages already get on load.

use assasin_kernels::gf256;

/// Pads `s` to `len` with zeros.
fn padded(s: &[u8], len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    v[..s.len()].copy_from_slice(s);
    v
}

fn xor_into(acc: &mut [u8], src: &[u8]) {
    for (a, b) in acc.iter_mut().zip(src.iter()) {
        *a ^= b;
    }
}

/// `acc ^= coeff · src`, one lookup per byte in the multiply-by-`coeff`
/// table (the kernels' "GF table" state) instead of a bitwise multiply.
fn mul_xor_into(acc: &mut [u8], coeff: u8, src: &[u8]) {
    let by = gf256::mul_table(coeff);
    for (a, b) in acc.iter_mut().zip(src.iter()) {
        *a ^= by[*b as usize];
    }
}

/// `a^n` in GF(256) by square-and-multiply.
fn gf_pow(mut a: u8, mut n: u32) -> u8 {
    let mut acc = 1u8;
    while n > 0 {
        if n & 1 != 0 {
            acc = gf256::mul(acc, a);
        }
        a = gf256::mul(a, a);
        n >>= 1;
    }
    acc
}

/// Multiplicative inverse in GF(256): `a^254`, since `a^255 = 1`.
///
/// # Panics
///
/// Panics on `a == 0`, which has no inverse.
pub fn gf_inv(a: u8) -> u8 {
    assert!(a != 0, "0 has no inverse in GF(256)");
    gf_pow(a, 254)
}

/// XOR parity of `streams`, each zero-padded to `len` (RAID4's `P`).
pub fn p_parity(streams: &[&[u8]], len: usize) -> Vec<u8> {
    let mut p = vec![0u8; len];
    for s in streams {
        xor_into(&mut p, s);
    }
    p
}

/// `(P, Q)` of `streams`, each zero-padded to `len`, with `Q`
/// coefficients `g^i` by stream position (RAID6).
pub fn pq_parity(streams: &[&[u8]], len: usize) -> (Vec<u8>, Vec<u8>) {
    let mut p = vec![0u8; len];
    let mut q = vec![0u8; len];
    for (i, s) in streams.iter().enumerate() {
        xor_into(&mut p, s);
        mul_xor_into(&mut q, gf256::gen_pow(i as u32), s);
    }
    (p, q)
}

/// Recovers one lost stream from XOR parity: `d_x = P ^ Σ_{i≠x} d_i`.
/// `survivors` carries `(position, bytes)` pairs; positions are not
/// needed for XOR but keep the call shape uniform.
pub fn recover_from_p(survivors: &[(usize, &[u8])], p: &[u8]) -> Vec<u8> {
    let mut d = p.to_vec();
    for (_, s) in survivors {
        xor_into(&mut d, s);
    }
    d
}

/// Recovers the lost stream at position `lost` from `Q` alone:
/// `d_x = (Q ^ Σ_{i≠x} g^i d_i) / g^x`. Used when `P`'s device is down
/// too but `Q` survives.
pub fn recover_from_q(survivors: &[(usize, &[u8])], q: &[u8], lost: usize) -> Vec<u8> {
    let mut num = q.to_vec();
    for &(i, s) in survivors {
        mul_xor_into(&mut num, gf256::gen_pow(i as u32), s);
    }
    let by_inv = gf256::mul_table(gf_inv(gf256::gen_pow(lost as u32)));
    for b in num.iter_mut() {
        *b = by_inv[*b as usize];
    }
    num
}

/// Recovers two lost streams at positions `x < y` from `P` and `Q`:
///
/// ```text
/// p' = P ^ Σ survivors           (= d_x ^ d_y)
/// q' = Q ^ Σ g^i·survivors       (= g^x·d_x ^ g^y·d_y)
/// d_x = (q' ^ g^y·p') / (g^x ^ g^y),   d_y = p' ^ d_x
/// ```
///
/// `g^x ≠ g^y` for distinct positions below the field order, so the
/// divisor never vanishes.
///
/// # Panics
///
/// Panics if `x == y`.
pub fn recover_two(
    survivors: &[(usize, &[u8])],
    p: &[u8],
    q: &[u8],
    x: usize,
    y: usize,
) -> (Vec<u8>, Vec<u8>) {
    assert!(x != y, "two-loss recovery needs two distinct positions");
    let mut p_syn = p.to_vec();
    let mut q_syn = q.to_vec();
    for &(i, s) in survivors {
        xor_into(&mut p_syn, s);
        mul_xor_into(&mut q_syn, gf256::gen_pow(i as u32), s);
    }
    let gx = gf256::gen_pow(x as u32);
    let gy = gf256::gen_pow(y as u32);
    let by_inv = gf256::mul_table(gf_inv(gx ^ gy));
    let by_gy = gf256::mul_table(gy);
    let mut dx = vec![0u8; p.len()];
    let mut dy = vec![0u8; p.len()];
    for i in 0..p.len() {
        let rx = by_inv[(q_syn[i] ^ by_gy[p_syn[i] as usize]) as usize];
        dx[i] = rx;
        dy[i] = p_syn[i] ^ rx;
    }
    (dx, dy)
}

/// Zero-pads every stream to `len` (callers hand survivors whose true
/// byte counts differ on a short final stripe).
pub fn pad_streams(streams: &[(usize, &[u8])], len: usize) -> Vec<(usize, Vec<u8>)> {
    streams.iter().map(|&(i, s)| (i, padded(s, len))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use assasin_kernels::raid::{raid4_golden, raid6_golden};

    fn streams() -> Vec<Vec<u8>> {
        // 4 deterministic pseudo-random streams, the kernel's
        // DATA_STREAMS shape.
        (0..4u64)
            .map(|s| {
                let mut x = 0x9e3779b97f4a7c15u64.wrapping_mul(s + 1);
                (0..64)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        (x >> 32) as u8
                    })
                    .collect()
            })
            .collect()
    }

    fn refs(v: &[Vec<u8>]) -> Vec<&[u8]> {
        v.iter().map(|s| s.as_slice()).collect()
    }

    #[test]
    fn p_parity_matches_raid4_kernel_golden() {
        let data = streams();
        assert_eq!(p_parity(&refs(&data), 64), raid4_golden(&refs(&data)));
    }

    #[test]
    fn pq_parity_matches_raid6_kernel_golden() {
        let data = streams();
        let (p, q) = pq_parity(&refs(&data), 64);
        let golden = raid6_golden(&refs(&data));
        let (gp, gq): (Vec<u8>, Vec<u8>) = golden
            .chunks_exact(2)
            .map(|pair| (pair[0], pair[1]))
            .unzip();
        assert_eq!(p, gp);
        assert_eq!(q, gq);
    }

    #[test]
    fn mul_xor_into_matches_bitwise_mul_for_every_pair() {
        let src: Vec<u8> = (0..=255u8).collect();
        let base: Vec<u8> = (0..=255u8).map(|b| b.wrapping_mul(167) ^ 0x5a).collect();
        for coeff in 0..=255u8 {
            let mut acc = base.clone();
            mul_xor_into(&mut acc, coeff, &src);
            for (i, &b) in src.iter().enumerate() {
                assert_eq!(acc[i], base[i] ^ gf256::mul(coeff, b), "{coeff} * {b}");
            }
        }
    }

    #[test]
    fn gf_inverse_inverts_every_nonzero_element() {
        for a in 1..=255u8 {
            assert_eq!(gf256::mul(a, gf_inv(a)), 1, "a = {a}");
        }
    }

    #[test]
    fn single_loss_recovers_from_p_or_q() {
        let data = streams();
        let (p, q) = pq_parity(&refs(&data), 64);
        for lost in 0..4 {
            let survivors: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != lost)
                .map(|(i, s)| (i, s.as_slice()))
                .collect();
            assert_eq!(recover_from_p(&survivors, &p), data[lost], "P, lost {lost}");
            assert_eq!(
                recover_from_q(&survivors, &q, lost),
                data[lost],
                "Q, lost {lost}"
            );
        }
    }

    #[test]
    fn double_loss_recovers_from_p_and_q() {
        let data = streams();
        let (p, q) = pq_parity(&refs(&data), 64);
        for x in 0..4 {
            for y in (x + 1)..4 {
                let survivors: Vec<(usize, &[u8])> = data
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != x && i != y)
                    .map(|(i, s)| (i, s.as_slice()))
                    .collect();
                let (dx, dy) = recover_two(&survivors, &p, &q, x, y);
                assert_eq!(dx, data[x], "lost ({x},{y})");
                assert_eq!(dy, data[y], "lost ({x},{y})");
            }
        }
    }

    #[test]
    fn short_members_code_as_zero_padded() {
        let data = streams();
        let mut short = data.clone();
        short[3].truncate(20);
        let padded_refs: Vec<Vec<u8>> = short.iter().map(|s| padded(s, 64)).collect();
        let (p, q) = pq_parity(&refs(&short), 64);
        let (pp, pq) = pq_parity(&refs(&padded_refs), 64);
        assert_eq!(p, pp);
        assert_eq!(q, pq);
    }
}
