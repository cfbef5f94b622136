//! Bit-packed spike planes: one bit per neuron, `u64` words per channel row.
//!
//! Spikes are binary, so a `[C, H, W]` activation fits in `C·H·⌈W/64⌉`
//! machine words. The paper's PE array exploits exactly this (§III, Fig. 3):
//! the accumulation pipeline touches weights only for *set* spike bits. This
//! module is the shared spike-iteration substrate for the functional runners
//! and the cycle-level machine:
//!
//! * popcount-based spike statistics ([`SpikePlane::count_ones`]),
//! * per-channel word views for kernels that read a channel's rows a word
//!   at a time ([`SpikePlane::channel_words`]: the tiled kernel's mask
//!   expansion and the head's per-channel popcounts),
//! * word-level segment extraction for the PE pipeline
//!   ([`SpikePlane::extract_bits`]),
//! * moving a stage's bits to and from flat 64-neuron words, whatever its
//!   row width, for the scatter's spike compaction and for epilogues that
//!   step neurons a word at a time ([`SpikePlane::flat_words`],
//!   [`SpikePlane::flat_writer`]). Where the
//!   row width divides 64 (every deployed stage: 16, 8, 4 or 2 columns), a
//!   flat word is exactly `64 / W` whole rows, each placed or gathered
//!   with one shift and mask; other widths stream their bits through a
//!   128-bit accumulator,
//! * a packed 2×2 OR-pool ([`or_pool_packed`]) that reduces two input words
//!   to one output word with shift/mask arithmetic.
//!
//! Invariant: in every row's final word, bits at x ≥ W are zero. All
//! mutating operations preserve it, so popcounts and word-wise OR/shift
//! tricks never see ghost bits.

use crate::scratch::note_growth;

/// A `[channels, h, w]` binary activation, bit-packed row by row.
///
/// Bit `x` of a row lives in word `x / 64`, at bit position `x % 64`
/// (LSB = smallest x). Rows never share words, so row-level operations are
/// word-aligned.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpikePlane {
    channels: usize,
    h: usize,
    w: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl SpikePlane {
    /// An empty plane of the given shape (all bits clear).
    #[must_use]
    pub fn new(channels: usize, h: usize, w: usize) -> Self {
        let mut p = Self::default();
        p.reset(channels, h, w);
        p
    }

    /// Reshapes to `[channels, h, w]` and clears every bit, reusing the
    /// existing allocation when the capacity suffices (growth is counted by
    /// the scratch tracker).
    pub fn reset(&mut self, channels: usize, h: usize, w: usize) {
        self.channels = channels;
        self.h = h;
        self.w = w;
        self.words_per_row = w.div_ceil(64);
        let n = channels * h * self.words_per_row;
        let cap = self.words.capacity();
        self.words.clear();
        self.words.resize(n, 0);
        if self.words.capacity() > cap {
            note_growth();
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Row count.
    #[must_use]
    pub fn height(&self) -> usize {
        self.h
    }

    /// Column count.
    #[must_use]
    pub fn width(&self) -> usize {
        self.w
    }

    /// Words backing one row.
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Total neuron count (`channels · h · w`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.channels * self.h * self.w
    }

    /// True when the plane holds zero neurons.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn row_base(&self, c: usize, y: usize) -> usize {
        (c * self.h + y) * self.words_per_row
    }

    /// The packed words of row `(c, y)`.
    #[must_use]
    pub fn row(&self, c: usize, y: usize) -> &[u64] {
        let base = self.row_base(c, y);
        &self.words[base..base + self.words_per_row]
    }

    /// The packed words of every channel (`h · words_per_row` each), in
    /// channel order.
    pub fn channel_words(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words
            .chunks_exact((self.h * self.words_per_row).max(1))
    }

    /// The plane's bits in canonical flat `[C, H, W]` order, 64 neurons per
    /// word (LSB = lowest index; the final word's unused bits are zero):
    /// epilogues that step a stage in flat 64-neuron words read a
    /// row-packed plane through this. A row width that divides 64 gathers
    /// `64 / W` whole rows per word, one shift each.
    pub fn flat_words(&self) -> FlatWords<'_> {
        FlatWords {
            words: &self.words,
            rows: FlatRows::new(self.w, self.words_per_row),
        }
    }

    /// The inverse of [`SpikePlane::flat_words`]: a writer that takes the
    /// plane's bits as flat `[C, H, W]` words, 64 neurons per word, and
    /// splits each into the rows it spans (at a row width that divides 64,
    /// `64 / W` whole rows, each one shift and mask). Every bit is
    /// overwritten once `ceil(len / 64)` words have been pushed; bits past
    /// [`SpikePlane::len`] are ignored.
    pub fn flat_writer(&mut self) -> FlatWriter<'_> {
        FlatWriter {
            rows: FlatRows::new(self.w, self.words_per_row),
            words: &mut self.words,
        }
    }

    /// Reads bit `(c, y, x)`.
    #[must_use]
    pub fn bit(&self, c: usize, y: usize, x: usize) -> bool {
        debug_assert!(c < self.channels && y < self.h && x < self.w);
        let word = self.words[self.row_base(c, y) + x / 64];
        (word >> (x % 64)) & 1 == 1
    }

    /// Reads the bit at flat index `i` in canonical `[C, H, W]` order.
    #[must_use]
    pub fn bit_linear(&self, i: usize) -> bool {
        let row = i / self.w;
        let x = i % self.w;
        (self.words[row * self.words_per_row + x / 64] >> (x % 64)) & 1 == 1
    }

    /// Sets the bit at flat index `i` in canonical `[C, H, W]` order.
    pub fn set_linear(&mut self, i: usize) {
        let row = i / self.w;
        let x = i % self.w;
        self.words[row * self.words_per_row + x / 64] |= 1u64 << (x % 64);
    }

    /// Total number of set bits (spike count), via popcount.
    #[must_use]
    pub fn count_ones(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Fraction of neurons that spiked, in `[0, 1]`.
    #[must_use]
    pub fn density(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            0.0
        } else {
            self.count_ones() as f64 / n as f64
        }
    }

    /// Reshapes to `other`'s shape and copies its bits.
    pub fn copy_from(&mut self, other: &SpikePlane) {
        self.reset(other.channels, other.h, other.w);
        self.words.copy_from_slice(&other.words);
    }

    /// Packs a byte-per-neuron `[C, H, W]` buffer (non-zero ⇒ spike).
    pub fn pack_from_bytes(&mut self, channels: usize, h: usize, w: usize, bytes: &[u8]) {
        assert_eq!(
            bytes.len(),
            channels * h * w,
            "spike byte buffer has wrong length"
        );
        self.reset(channels, h, w);
        for (row, chunk) in bytes.chunks_exact(w.max(1)).enumerate() {
            let base = row * self.words_per_row;
            for (x, &b) in chunk.iter().enumerate() {
                if b != 0 {
                    self.words[base + x / 64] |= 1u64 << (x % 64);
                }
            }
        }
    }

    /// Unpacks into a byte-per-neuron `[C, H, W]` buffer (1 ⇒ spike).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len()];
        self.unpack_into(&mut out);
        out
    }

    /// Unpacks into a caller-provided byte buffer of exactly `len()` bytes.
    pub fn unpack_into(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.len(), "unpack buffer has wrong length");
        if self.w == 0 {
            return;
        }
        for (row, chunk) in out.chunks_exact_mut(self.w).enumerate() {
            let base = row * self.words_per_row;
            for (x, b) in chunk.iter_mut().enumerate() {
                *b = ((self.words[base + x / 64] >> (x % 64)) & 1) as u8;
            }
        }
    }

    /// Extracts `len ≤ 64` consecutive bits of row `(c, y)` starting at
    /// column `x0`, LSB = column `x0`. Out-of-bounds rows or columns
    /// (negative or ≥ bounds) read as zero — exactly the padding semantics
    /// of the conv kernels and the PE segment gather.
    #[must_use]
    pub fn extract_bits(&self, c: usize, y: isize, x0: isize, len: usize) -> u64 {
        debug_assert!(len <= 64);
        if y < 0 || y as usize >= self.h || len == 0 {
            return 0;
        }
        let row = self.row(c, y as usize);
        let w = self.w as isize;
        if x0 >= w || x0 + len as isize <= 0 {
            return 0;
        }
        // Gather up to two words covering [x0, x0+len).
        let mut out = 0u64;
        let mut filled = 0usize;
        let mut x = x0;
        while filled < len && x < w {
            if x < 0 {
                // Leading padding: skip to column 0, leaving zeros.
                filled += (-x) as usize;
                x = 0;
                continue;
            }
            let xi = x as usize;
            let word = row[xi / 64];
            let shift = xi % 64;
            let avail = 64 - shift;
            let chunk = word >> shift;
            out |= (chunk & mask_lo(avail.min(len - filled))) << filled;
            filled += avail;
            x += avail as isize;
        }
        out & mask_lo(len)
    }

    /// Calls `f(x)` for every set bit of row `(c, y)`, in ascending column
    /// order (trailing-zeros iteration).
    pub fn for_each_set_in_row(&self, c: usize, y: usize, mut f: impl FnMut(usize)) {
        let base = self.row_base(c, y);
        for wi in 0..self.words_per_row {
            let mut m = self.words[base + wi];
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                f(wi * 64 + bit);
                m &= m - 1;
            }
        }
    }

    /// Calls `f(i)` for every set bit in canonical flat `[C, H, W]` order.
    pub fn for_each_set_linear(&self, mut f: impl FnMut(usize)) {
        for c in 0..self.channels {
            for y in 0..self.h {
                let row_off = (c * self.h + y) * self.w;
                self.for_each_set_in_row(c, y, |x| f(row_off + x));
            }
        }
    }
}

/// Row-word bookkeeping of the flat-word views.
///
/// Where the row width divides 64 (every row is one word), a flat word is
/// exactly `64 / w` whole rows, and each row moves between the two with one
/// shift and mask. Any other width streams its bits through a 128-bit
/// accumulator that holds the bits gathered but not yet placed, and where
/// the walk is within its row.
#[derive(Clone, Debug)]
enum FlatRows {
    /// `w` divides 64: `per = 64 / w` rows to a flat word.
    Whole {
        w: usize,
        per: usize,
    },
    Stream(Stream),
}

impl FlatRows {
    fn new(w: usize, words_per_row: usize) -> Self {
        if w > 0 && 64 % w == 0 {
            FlatRows::Whole { w, per: 64 / w }
        } else {
            FlatRows::Stream(Stream::new(w, words_per_row))
        }
    }
}

/// The streaming walk of [`FlatRows`], for row widths that do not divide 64.
#[derive(Clone, Debug)]
struct Stream {
    words_per_row: usize,
    /// Valid bits in each row's final word.
    tail: usize,
    /// Position of the next row word within its row.
    col: usize,
    /// Gathered bits not yet placed (`avail` of them, LSB first).
    acc: u128,
    avail: usize,
}

impl Stream {
    fn new(w: usize, words_per_row: usize) -> Self {
        Stream {
            words_per_row,
            tail: w - 64 * words_per_row.saturating_sub(1),
            col: 0,
            acc: 0,
            avail: 0,
        }
    }

    /// Valid bits in the next row word.
    #[inline(always)]
    fn word_bits(&self) -> usize {
        if self.col + 1 == self.words_per_row {
            self.tail
        } else {
            64
        }
    }

    /// Moves past the next row word.
    #[inline(always)]
    fn advance(&mut self) {
        self.col += 1;
        if self.col == self.words_per_row {
            self.col = 0;
        }
    }
}

/// Iterator returned by [`SpikePlane::flat_words`].
#[derive(Clone, Debug)]
pub struct FlatWords<'a> {
    words: &'a [u64],
    rows: FlatRows,
}

impl Iterator for FlatWords<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        // Ghost bits are zero, so no row word needs a mask.
        let r = match &mut self.rows {
            FlatRows::Whole { w, per } => {
                if self.words.is_empty() {
                    return None;
                }
                let (rows, rest) = self.words.split_at((*per).min(self.words.len()));
                self.words = rest;
                let flat = rows
                    .iter()
                    .enumerate()
                    .fold(0, |flat, (i, &row)| flat | row << (i * *w));
                return Some(flat);
            }
            FlatRows::Stream(r) => r,
        };
        while r.avail < 64 {
            let Some((&word, rest)) = self.words.split_first() else {
                break;
            };
            self.words = rest;
            r.acc |= u128::from(word) << r.avail;
            r.avail += r.word_bits();
            r.advance();
        }
        if r.avail == 0 {
            return None;
        }
        let out = r.acc as u64;
        r.acc >>= 64;
        r.avail = r.avail.saturating_sub(64);
        Some(out)
    }
}

/// Writer returned by [`SpikePlane::flat_writer`].
#[derive(Debug)]
pub struct FlatWriter<'a> {
    words: &'a mut [u64],
    rows: FlatRows,
}

impl FlatWriter<'_> {
    /// Places the next 64 flat neurons' bits (LSB = lowest index).
    #[inline]
    pub fn push(&mut self, flat: u64) {
        // Past the plane's last word there is nothing to place.
        if self.words.is_empty() {
            return;
        }
        let words = std::mem::take(&mut self.words);
        let r = match &mut self.rows {
            FlatRows::Whole { w, per } => {
                let (rows, rest) = words.split_at_mut((*per).min(words.len()));
                let mask = mask_lo(*w);
                for (i, row) in rows.iter_mut().enumerate() {
                    *row = (flat >> (i * *w)) & mask;
                }
                self.words = rest;
                return;
            }
            FlatRows::Stream(r) => r,
        };
        r.acc |= u128::from(flat) << r.avail;
        r.avail += 64;
        let mut done = 0;
        for word in words.iter_mut() {
            let n = r.word_bits();
            if r.avail < n {
                break;
            }
            r.advance();
            *word = r.acc as u64 & mask_lo(n);
            r.acc >>= n;
            r.avail -= n;
            done += 1;
        }
        self.words = &mut words[done..];
    }
}

fn mask_lo(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Drops every odd-position bit and packs the even-position bits
/// contiguously into the low 32 bits (shift-mask compress cascade).
fn compress_even_bits(mut x: u64) -> u64 {
    x &= 0x5555_5555_5555_5555;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0x0000_0000_FFFF_FFFF;
    x
}

/// 2×2 max-pool on binary spikes (logical OR of each 2×2 window), computed
/// word-at-a-time on the packed representation: OR the two input rows, OR
/// each word with itself shifted right by one, then compress the even bits.
/// Two input words fold into one output word. `inp`'s height and width must
/// be even; `out` is reshaped to `[C, H/2, W/2]`.
pub fn or_pool_packed(inp: &SpikePlane, out: &mut SpikePlane) {
    let (c, h, w) = (inp.channels(), inp.height(), inp.width());
    assert!(
        h % 2 == 0 && w % 2 == 0,
        "or_pool needs even spatial dims, got {h}x{w}"
    );
    let (oh, ow) = (h / 2, w / 2);
    out.reset(c, oh, ow);
    for ch in 0..c {
        for oy in 0..oh {
            let top = inp.row(ch, 2 * oy);
            let bot = inp.row(ch, 2 * oy + 1);
            let base = out.row_base(ch, oy);
            for owi in 0..out.words_per_row {
                // Output word `owi` covers input columns [owi*128, owi*128+128).
                let lo = 2 * owi;
                let mut word = {
                    let v = top[lo] | bot[lo];
                    compress_even_bits(v | (v >> 1))
                };
                if lo + 1 < inp.words_per_row {
                    let v = top[lo + 1] | bot[lo + 1];
                    word |= compress_even_bits(v | (v >> 1)) << 32;
                }
                out.words[base + owi] = word;
            }
            // Preserve the ghost-bit invariant in the row's last word.
            let tail = ow % 64;
            if tail != 0 {
                out.words[base + out.words_per_row - 1] &= mask_lo(tail);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn byte_or_pool(spikes: &[u8], channels: usize, h: usize, w: usize) -> Vec<u8> {
        crate::runner::or_pool(spikes, channels, h, w)
    }

    fn lcg_bytes(n: usize, rate: u32, seed: &mut u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                *seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                u8::from(((*seed >> 33) as u32 % 100) < rate)
            })
            .collect()
    }

    #[test]
    fn pack_roundtrip_and_counts() {
        let mut seed = 7u64;
        for &(c, h, w) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (2, 4, 64),
            (1, 2, 65),
            (2, 3, 130),
        ] {
            let bytes = lcg_bytes(c * h * w, 40, &mut seed);
            let mut p = SpikePlane::default();
            p.pack_from_bytes(c, h, w, &bytes);
            assert_eq!(p.to_bytes(), bytes);
            let expect: u64 = bytes.iter().map(|&b| u64::from(b)).sum();
            assert_eq!(p.count_ones(), expect);
            for (i, &b) in bytes.iter().enumerate() {
                assert_eq!(p.bit_linear(i), b != 0, "bit {i} of {c}x{h}x{w}");
            }
        }
    }

    #[test]
    fn set_linear_matches_pack() {
        let mut seed = 21u64;
        let (c, h, w) = (2, 3, 70);
        let bytes = lcg_bytes(c * h * w, 30, &mut seed);
        let mut a = SpikePlane::default();
        a.pack_from_bytes(c, h, w, &bytes);
        let mut b = SpikePlane::new(c, h, w);
        for (i, &v) in bytes.iter().enumerate() {
            if v != 0 {
                b.set_linear(i);
            }
        }
        assert_eq!(a, b);
    }

    #[test]
    fn extract_bits_handles_padding_and_word_straddle() {
        let (c, h, w) = (1, 2, 100);
        let mut seed = 3u64;
        let bytes = lcg_bytes(c * h * w, 50, &mut seed);
        let mut p = SpikePlane::default();
        p.pack_from_bytes(c, h, w, &bytes);
        for y in -1..=(h as isize) {
            for x0 in -5..(w as isize + 5) {
                for len in [0usize, 1, 3, 17, 64] {
                    let got = p.extract_bits(0, y, x0, len);
                    for i in 0..len {
                        let x = x0 + i as isize;
                        let expect = y >= 0
                            && (y as usize) < h
                            && x >= 0
                            && (x as usize) < w
                            && bytes[(y as usize) * w + x as usize] != 0;
                        assert_eq!((got >> i) & 1 == 1, expect, "y={y} x0={x0} len={len} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_iteration_visits_set_bits_ascending() {
        let (c, h, w) = (2, 2, 67);
        let mut seed = 11u64;
        let bytes = lcg_bytes(c * h * w, 25, &mut seed);
        let mut p = SpikePlane::default();
        p.pack_from_bytes(c, h, w, &bytes);
        for ch in 0..c {
            for y in 0..h {
                let mut got = Vec::new();
                p.for_each_set_in_row(ch, y, |x| got.push(x));
                let expect: Vec<usize> = (0..w)
                    .filter(|&x| bytes[(ch * h + y) * w + x] != 0)
                    .collect();
                assert_eq!(got, expect);
                assert!(got.windows(2).all(|p| p[0] < p[1]));
            }
        }
        let mut lin = Vec::new();
        p.for_each_set_linear(|i| lin.push(i));
        let expect: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != 0).collect();
        assert_eq!(lin, expect);
    }

    #[test]
    fn packed_or_pool_matches_byte_reference() {
        let mut seed = 5u64;
        for &(c, h, w) in &[
            (1usize, 2usize, 2usize),
            (3, 4, 6),
            (2, 8, 64),
            (1, 4, 128),
            (2, 6, 66),
        ] {
            for rate in [0u32, 10, 50, 100] {
                let bytes = lcg_bytes(c * h * w, rate, &mut seed);
                let mut p = SpikePlane::default();
                p.pack_from_bytes(c, h, w, &bytes);
                let mut pooled = SpikePlane::default();
                or_pool_packed(&p, &mut pooled);
                assert_eq!(
                    pooled.to_bytes(),
                    byte_or_pool(&bytes, c, h, w),
                    "c={c} h={h} w={w} rate={rate}"
                );
                // Ghost bits stay clear.
                assert_eq!(
                    pooled.count_ones(),
                    pooled.to_bytes().iter().map(|&b| u64::from(b)).sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn flat_words_round_trip_at_every_width() {
        // Widths that divide 64, are multiples of it, and neither.
        let mut seed = 13u64;
        for w in [1usize, 2, 3, 8, 10, 16, 32, 63, 64, 65, 100, 128, 130] {
            let (c, h) = (3, 2);
            let bytes = lcg_bytes(c * h * w, 40, &mut seed);
            let mut p = SpikePlane::default();
            p.pack_from_bytes(c, h, w, &bytes);
            let flat: Vec<u64> = p.flat_words().collect();
            assert_eq!(flat.len(), (c * h * w).div_ceil(64), "w={w}");
            for (i, &b) in bytes.iter().enumerate() {
                assert_eq!((flat[i / 64] >> (i % 64)) & 1 == 1, b != 0, "w={w} bit {i}");
            }
            // Unused bits of the final flat word stay clear.
            assert_eq!(
                flat.iter().map(|w| u64::from(w.count_ones())).sum::<u64>(),
                p.count_ones()
            );
            // A writer fed the flat words rebuilds the plane exactly, even
            // over stale bits, and ignores bits and words past the plane.
            let mut q = SpikePlane::new(c, h, w);
            q.words.iter_mut().for_each(|word| *word = u64::MAX);
            let mut writer = q.flat_writer();
            for (i, &word) in flat.iter().enumerate() {
                let ghost = if i + 1 == flat.len() && (c * h * w) % 64 != 0 {
                    u64::MAX << ((c * h * w) % 64)
                } else {
                    0
                };
                writer.push(word | ghost);
            }
            for _ in 0..3 {
                writer.push(u64::MAX);
            }
            assert_eq!(q, p, "w={w}");
        }
    }

    #[test]
    fn whole_row_path_matches_the_streaming_walk() {
        // Every width that divides 64 takes the whole-row path; the
        // streaming walk it replaced there is its oracle, reading and
        // writing, at row counts that leave the last flat word partial
        // and whole.
        let mut seed = 19u64;
        for w in [1usize, 2, 4, 8, 16, 32, 64] {
            for (c, h) in [(1usize, 1usize), (3, 5), (8, 16), (64, 2), (7, 9)] {
                let bytes = lcg_bytes(c * h * w, 40, &mut seed);
                let mut p = SpikePlane::default();
                p.pack_from_bytes(c, h, w, &bytes);
                assert!(matches!(FlatRows::new(w, 1), FlatRows::Whole { .. }));
                let stream = || FlatRows::Stream(Stream::new(w, 1));
                let whole: Vec<u64> = p.flat_words().collect();
                let streamed: Vec<u64> = FlatWords {
                    words: &p.words,
                    rows: stream(),
                }
                .collect();
                assert_eq!(whole, streamed, "{c}x{h}x{w}");
                let mut by_rows = SpikePlane::new(c, h, w);
                let mut by_stream = SpikePlane::new(c, h, w);
                for q in [&mut by_rows, &mut by_stream] {
                    q.words.iter_mut().for_each(|word| *word = u64::MAX);
                }
                let mut a = by_rows.flat_writer();
                let mut b = FlatWriter {
                    words: &mut by_stream.words,
                    rows: stream(),
                };
                for (i, &word) in whole.iter().chain(&[u64::MAX]).enumerate() {
                    let ghost = match (c * h * w) % 64 {
                        r if r != 0 && i + 1 == whole.len() => u64::MAX << r,
                        _ => 0,
                    };
                    a.push(word | ghost);
                    b.push(word | ghost);
                }
                assert_eq!(by_rows, p, "{c}x{h}x{w}");
                assert_eq!(by_stream, p, "{c}x{h}x{w}");
            }
        }
    }

    #[test]
    fn reset_reuses_capacity() {
        let mut p = SpikePlane::new(4, 8, 8);
        let base = crate::scratch::scratch_growth();
        p.reset(2, 4, 4);
        p.reset(4, 8, 8);
        assert_eq!(crate::scratch::scratch_growth(), base);
    }
}
