/* GF(2^8) arithmetic shared by the codec (gf256.c) and the slot loop
   (slots.c): the multiplication, pshufb and inverse tables, the row
   kernel ``addmul`` (AVX2, SSSE3 or a table walk, picked at compile time)
   and the single-row insert into a sorted reduced echelon basis.  Each
   file that includes it gets its own tables, filled by its ``gf_init``. */

#ifndef REPRO_GF256_H
#define REPRO_GF256_H

#include <stddef.h>
#include <stdint.h>
#include <string.h>

static uint8_t MUL[256 * 256];
static uint8_t SHUF[256 * 32]; /* per c: 16B low-nibble, 16B high-nibble products */
static uint8_t INV[256];

void gf_init(const uint8_t *mul_table, const uint8_t *shuf_tables,
             const uint8_t *inv_table) {
    memcpy(MUL, mul_table, sizeof MUL);
    memcpy(SHUF, shuf_tables, sizeof SHUF);
    memcpy(INV, inv_table, sizeof INV);
}

#if defined(__AVX2__)
#include <immintrin.h>
static void addmul(uint8_t *t, const uint8_t *s, unsigned c, size_t n) {
    if (c == 0) return;
    const __m128i tl128 = _mm_loadu_si128((const __m128i *)(SHUF + c * 32));
    const __m128i th128 = _mm_loadu_si128((const __m128i *)(SHUF + c * 32 + 16));
    const __m256i tl = _mm256_broadcastsi128_si256(tl128);
    const __m256i th = _mm256_broadcastsi128_si256(th128);
    const __m256i mask = _mm256_set1_epi8(0x0f);
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        __m256i v = _mm256_loadu_si256((const __m256i *)(s + i));
        __m256i lo = _mm256_and_si256(v, mask);
        __m256i hi = _mm256_and_si256(_mm256_srli_epi64(v, 4), mask);
        __m256i p = _mm256_xor_si256(_mm256_shuffle_epi8(tl, lo),
                                     _mm256_shuffle_epi8(th, hi));
        __m256i o = _mm256_loadu_si256((const __m256i *)(t + i));
        _mm256_storeu_si256((__m256i *)(t + i), _mm256_xor_si256(o, p));
    }
    const uint8_t *row = MUL + (size_t)c * 256;
    for (; i < n; i++) t[i] ^= row[s[i]];
}
#elif defined(__SSSE3__)
#include <tmmintrin.h>
static void addmul(uint8_t *t, const uint8_t *s, unsigned c, size_t n) {
    if (c == 0) return;
    const __m128i tl = _mm_loadu_si128((const __m128i *)(SHUF + c * 32));
    const __m128i th = _mm_loadu_si128((const __m128i *)(SHUF + c * 32 + 16));
    const __m128i mask = _mm_set1_epi8(0x0f);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m128i v = _mm_loadu_si128((const __m128i *)(s + i));
        __m128i lo = _mm_and_si128(v, mask);
        __m128i hi = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
        __m128i p = _mm_xor_si128(_mm_shuffle_epi8(tl, lo),
                                  _mm_shuffle_epi8(th, hi));
        __m128i o = _mm_loadu_si128((const __m128i *)(t + i));
        _mm_storeu_si128((__m128i *)(t + i), _mm_xor_si128(o, p));
    }
    const uint8_t *row = MUL + (size_t)c * 256;
    for (; i < n; i++) t[i] ^= row[s[i]];
}
#else
static void addmul(uint8_t *t, const uint8_t *s, unsigned c, size_t n) {
    if (c == 0) return;
    const uint8_t *row = MUL + (size_t)c * 256;
    for (size_t i = 0; i < n; i++) t[i] ^= row[s[i]];
}
#endif

/* Single-row insert into a sorted reduced echelon basis, all in place:
   `matrix` holds `rank` valid rows of `width` bytes with pivots
   `pivots[0..rank)` ascending inside the first `blocks` columns, `row`
   is the caller's scratch copy of the candidate.  Returns the position
   the row was stored at, or -1 when it lies in the span.  counts[0] is
   the number of stored rows folded into the candidate, counts[1] the
   number of stored rows the new pivot was eliminated from.

   The stored rows are *reduced* - row i is zero at every other pivot
   column - so folding row i into the candidate cannot change the
   candidate's entry at pivots[j], j != i: each coefficient can be read
   when its turn comes, no coefficient buffer is needed. */
static ptrdiff_t basis_insert(uint8_t *matrix, ptrdiff_t *pivots, uint8_t *row,
                          size_t *counts, size_t blocks, size_t width,
                          size_t rank) {
    size_t folded = 0, touched = 0, position = 0, col = 0;
    for (size_t i = 0; i < rank; i++) {
        unsigned c = row[pivots[i]];
        if (c) { addmul(row, matrix + i * width, c, width); folded++; }
    }
    counts[0] = folded;
    counts[1] = 0;
    while (col < blocks && !row[col]) col++;
    if (col == blocks) return -1;
    unsigned pv = row[col];
    if (pv != 1) {
        const uint8_t *mrow = MUL + (size_t)INV[pv] * 256;
        for (size_t c = col; c < width; c++) row[c] = mrow[row[c]];
    }
    for (size_t i = 0; i < rank; i++) {
        uint8_t *other = matrix + i * width;
        unsigned c = other[col];
        if (c) { addmul(other + col, row + col, c, width - col); touched++; }
        position += (size_t)pivots[i] < col;
    }
    counts[1] = touched;
    uint8_t *slot = matrix + position * width;
    memmove(slot + width, slot, (rank - position) * width);
    memmove(pivots + position + 1, pivots + position,
            (rank - position) * sizeof *pivots);
    memcpy(slot, row, width);
    pivots[position] = (ptrdiff_t)col;
    return (ptrdiff_t)position;
}

#endif
