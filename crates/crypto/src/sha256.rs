//! SHA-256, implemented from scratch (FIPS 180-4).
//!
//! The paper uses SHA-256 as the cryptographic hash function `H` for block
//! digests (`h = H(s||v||r)`, §V-C), Merkle trees (§IV) and state digests.
//! This implementation is tested against the FIPS/NIST test vectors.

use sbft_types::Digest;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use sbft_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"abc");
/// let digest = hasher.finalize();
/// assert_eq!(
///     digest.to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// A compression function: folds whole 64-byte blocks into the state.
type Kernel = fn(&mut [u32; 8], &[u8]);

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds bytes into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress_blocks, data);
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress_blocks)
    }

    fn update_with(&mut self, kernel: Kernel, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks go to the kernel straight from the input.
        let whole = data.len() - data.len() % 64;
        kernel(&mut self.state, &data[..whole]);
        let rest = &data[whole..];
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    fn finalize_with(mut self, kernel: Kernel) -> Digest {
        // Append 0x80, pad with zeros to 56 mod 64, append the 64-bit bit
        // length: one block, or two when fewer than 9 bytes are left.
        let mut tail = [0u8; 128];
        let n = self.buffer_len;
        tail[..n].copy_from_slice(&self.buffer[..n]);
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        kernel(&mut self.state, &tail[..len]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest::new(out)
    }
}

/// Compresses `blocks` (a whole number of 64-byte blocks) with the SHA
/// extensions when the CPU has them, else with the portable kernel.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available` confirmed the CPU supports every feature
        // `shani::compress` is compiled for.
        unsafe { shani::compress(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The portable FIPS 180-4 compression function, used on CPUs without
/// SHA extensions and as the reference the accelerated kernel is tested
/// against.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA extensions kernel (`sha256rnds2`/`sha256msg1`/
/// `sha256msg2`), four rounds per step with the state held as the
/// `ABEF`/`CDGH` register pair the instructions expect.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether the running CPU has every feature [`compress`] uses
    /// (`sse4.1` implies the `ssse3` byte shuffles).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha") && is_x86_feature_detected!("sse4.1")
    }

    /// Four rounds on the message words `w` (already in host order).
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            // `K` is 64 words, so words 4i..4i+4 are in bounds for i < 16.
            let k = _mm_loadu_si128(K.as_ptr().add(4 * $i).cast());
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }

    /// Replaces the oldest four message words `$w0` with the next four
    /// (from the previous sixteen, oldest first), then runs their rounds.
    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:ident, $w1:ident, $w2:ident, $w3:ident, $i:expr) => {{
            $w0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            );
            rounds4!($abef, $cdgh, $w0, $i);
        }};
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha` and `sse4.1` features (see
    /// [`available`]).
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Byte swap within each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // SAFETY (all loads and stores below): `state` is 32 bytes and
        // every block from `chunks_exact(64)` is 64 bytes, so each
        // unaligned 16-byte access stays inside its array.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p.cast()), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(16).cast()), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(32).cast()), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(48).cast()), bswap);
            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            // Rounds 16..64: each step's schedule words replace the oldest
            // four, cycling through w0..w3.
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 9);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 10);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 11);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, 12);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w0, 13);
            schedule_rounds4!(abef, cdgh, w2, w3, w0, w1, 14);
            schedule_rounds4!(abef, cdgh, w3, w0, w1, w2, 15);
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
    }
}

/// Hashes a byte slice with SHA-256 in one call.
///
/// # Examples
///
/// ```
/// let d = sbft_crypto::sha256(b"");
/// assert_eq!(
///     d.to_hex(),
///     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
/// );
/// ```
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Hashes the concatenation of several byte slices.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// HMAC-SHA256 (RFC 2104). The paper's implementation authenticates
/// point-to-point channels (TLS 1.2); we expose HMAC for the same purpose in
/// the simulated transport.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(sha256(key).as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let inner = {
        let mut h = Sha256::new();
        h.update(&ipad);
        h.update(message);
        h.finalize()
    };
    let mut h = Sha256::new();
    h.update(&opad);
    h.update(inner.as_bytes());
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    /// Hashes `data` with the given compression kernel.
    fn hash_with(kernel: Kernel, data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update_with(kernel, data);
        h.finalize_with(kernel)
    }

    /// Every kernel this CPU can run. The portable one is always called
    /// directly, so runners without SHA extensions still test both paths
    /// the public API can take.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        #[allow(unused_mut)]
        let mut out: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            out.push(("sha-ni", |state, blocks| {
                // SAFETY: only pushed after `available` confirmed the
                // CPU features the kernel is compiled for.
                unsafe { shani::compress(state, blocks) }
            }));
        }
        out
    }

    fn assert_vector(data: &[u8], hex: &str) {
        for (name, kernel) in kernels() {
            assert_eq!(hash_with(kernel, data).to_hex(), hex, "{name} kernel");
        }
        assert_eq!(sha256(data).to_hex(), hex, "public API");
    }

    // FIPS 180-4 / NIST CAVS vectors.
    #[test]
    fn empty_string() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn four_block_message() {
        assert_vector(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_vector(
            &data,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn exact_block_boundary() {
        // 64-byte input exercises the padding-to-new-block path.
        assert_vector(
            &[0x61u8; 64],
            "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
        );
    }

    /// Every kernel, one-shot and incremental, agrees with the portable
    /// reference on random inputs of every length 0..=300 (which covers
    /// the padding edges at 55, 56, 63, 64, 119 and 120 bytes) and on
    /// multi-block inputs.
    #[test]
    fn kernels_agree_with_portable_reference() {
        let mut rng = SplitMix64::new(0x5a17);
        let lengths = (0..=300).chain([55, 56, 63, 64, 119, 120, 1000, 4096 + 7, 65_536 + 13]);
        for len in lengths {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let reference = hash_with(compress_portable, &data);
            for (name, kernel) in kernels() {
                assert_eq!(hash_with(kernel, &data), reference, "{name}, {len} bytes");
            }
            assert_eq!(sha256(&data), reference, "public API, {len} bytes");
            let split = (rng.next_u64() % (len as u64 + 1)) as usize;
            let (a, b) = data.split_at(split);
            assert_eq!(
                sha256_concat(&[a, b]),
                reference,
                "split at {split} of {len}"
            );
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let one_shot = sha256(&data);
        for chunk_size in [1usize, 3, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            for chunk in data.chunks(chunk_size) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), one_shot, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn concat_helper() {
        assert_eq!(sha256_concat(&[b"ab", b"c"]), sha256(b"abc"));
        assert_eq!(sha256_concat(&[]), sha256(b""));
    }

    // RFC 4231 test case 1 and 2.
    #[test]
    fn hmac_rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hmac_sha256(&key, b"Hi There").to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case2() {
        assert_eq!(
            hmac_sha256(b"Jefe", b"what do ya want for nothing?").to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        // Keys longer than the block size are first hashed (RFC 4231 case 6).
        let key = [0xaau8; 131];
        assert_eq!(
            hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )
            .to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }
}
