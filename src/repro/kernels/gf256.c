
#include "gf256.h"

void gf_addmul_row(uint8_t *t, const uint8_t *s, unsigned c, size_t n) {
    addmul(t, s, c, n);
}

void gf_addmul_rows(uint8_t *tgts, ptrdiff_t stride, const uint8_t *src,
                    const uint8_t *coefs, size_t rows, size_t width) {
    for (size_t r = 0; r < rows; r++)
        addmul(tgts + (ptrdiff_t)r * stride, src, coefs[r], width);
}

void gf_matmul(uint8_t *out, const uint8_t *a, const uint8_t *b,
               size_t n, size_t k, size_t m) {
    for (size_t i = 0; i < n; i++) {
        uint8_t *dst = out + i * m;
        const uint8_t *arow = a + i * k;
        for (size_t j = 0; j < k; j++)
            addmul(dst, b + j * m, arow[j], m);
    }
}

ptrdiff_t gf_eliminate(uint8_t *work, size_t rows, size_t width, size_t panel,
                       size_t limit, ptrdiff_t *out_rows, ptrdiff_t *out_cols) {
    ptrdiff_t found = 0;
    for (size_t i = 0; i < rows && (size_t)found < limit; i++) {
        uint8_t *row = work + i * width;
        size_t col = panel;
        for (size_t c = 0; c < panel; c++) {
            if (row[c]) { col = c; break; }
        }
        if (col == panel) continue;
        unsigned pv = row[col];
        if (pv != 1) {
            const uint8_t *mrow = MUL + (size_t)INV[pv] * 256;
            for (size_t c2 = col; c2 < width; c2++) row[c2] = mrow[row[c2]];
        }
        for (size_t r = 0; r < rows; r++) {
            if (r == i) continue;
            uint8_t *other = work + r * width;
            unsigned c2 = other[col];
            if (c2) addmul(other + col, row + col, c2, width - col);
        }
        out_rows[found] = (ptrdiff_t)i;
        out_cols[found] = (ptrdiff_t)col;
        found++;
    }
    return found;
}

ptrdiff_t gf_basis_insert(uint8_t *matrix, ptrdiff_t *pivots, uint8_t *row,
                          size_t *counts, size_t blocks, size_t width,
                          size_t rank) {
    return basis_insert(matrix, pivots, row, counts, blocks, width, rank);
}

/* `basis_insert` on each of the `k` rows of `rows` (C-contiguous, `width`
   bytes apart, never written), in order, through the scratch row `row`.
   Writes into caller memory: the basis (`matrix`, `pivots`), `row`,
   `verdicts[0..k)` (1 if the row was stored, else 0) and `counts`, which
   on return sums over the batch the rows that folded anything in
   (counts[0]) and the stored rows a new pivot was eliminated from
   (counts[1]).  Returns the new rank. */
size_t gf_basis_insert_rows(uint8_t *matrix, ptrdiff_t *pivots, uint8_t *row,
                            size_t *counts, size_t blocks, size_t width,
                            size_t rank, const uint8_t *rows, size_t k,
                            uint8_t *verdicts) {
    size_t folded = 0, touched = 0, step[2];
    for (size_t r = 0; r < k; r++) {
        memcpy(row, rows + r * width, width);
        ptrdiff_t stored = basis_insert(matrix, pivots, row, step, blocks,
                                        width, rank);
        verdicts[r] = stored >= 0;
        rank += stored >= 0;
        folded += step[0] != 0;
        touched += step[1];
    }
    counts[0] = folded;
    counts[1] = touched;
    return rank;
}
