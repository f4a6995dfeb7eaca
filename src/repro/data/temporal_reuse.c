/* Temporal-reuse sparse IDs: the loop of
   repro.data.sparse.TemporalReuseGenerator.ids, draw for draw.

   Every draw comes from the caller's numpy generator through its
   bitgen_t (numpy/random/bitgen.h), with numpy's own functions from
   libnpyrandom.a: rng.random() is random_standard_uniform, and a scalar
   rng.integers(0, n) is random_bounded_uint64_fill over [0, n - 1] with
   a count of one, as numpy's scalar path calls it. So the IDs, and the
   state the generator is left in (PCG64's buffered half-word included),
   are those of the reference loop for every bit generator and bound. */

#include <stdbool.h>
#include <stdint.h>

typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

double random_standard_uniform(bitgen_t *bitgen_state);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off,
                                uint64_t rng, intptr_t cnt, bool use_masked,
                                uint64_t *out);

/* buf holds the carried history (its first len0 IDs) and then room for
   count new IDs. The history window is buf[start, start + len): it ends
   just before the next ID and, like the reference loop's list, drops its
   oldest ID once it holds more than history. max_id is rows - 1. */
void repro_temporal_reuse(bitgen_t *bg, int64_t *buf, int64_t len0,
                          int64_t count, uint64_t max_id, double reuse,
                          int64_t history) {
    int64_t start = 0, len = len0;
    for (int64_t i = 0; i < count; ++i) {
        uint64_t v;
        if (len > 0 && random_standard_uniform(bg) < reuse) {
            random_bounded_uint64_fill(bg, 0, (uint64_t)(len - 1), 1, false,
                                       &v);
            buf[len0 + i] = buf[start + (int64_t)v];
        } else {
            random_bounded_uint64_fill(bg, 0, max_id, 1, false, &v);
            buf[len0 + i] = (int64_t)v;
        }
        if (len < history)
            len++;
        else
            start++;
    }
}
