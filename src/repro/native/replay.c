/* Mirror of the reference loop in repro.hw.cache / repro.hw.hierarchy.
 * Each cache set keeps its resident lines contiguous from slot 0 in LRU
 * order (slot 0 = LRU victim, slot occ-1 = MRU), matching the iteration
 * order of the reference OrderedDict. The uint8 flag alongside each tag
 * marks "filled by a prefetch, not yet demanded"; flags die with their
 * copy on eviction, which is the leak-free prefetch-hit bookkeeping. */

#include <stdint.h>
#include <string.h>

typedef int64_t i64;
typedef uint8_t u8;

typedef struct {
    i64 *tags;
    u8 *flags;
    i64 *occ;
    i64 nsets;
    i64 ways;
    i64 *ctr; /* [hits, misses, evictions, invalidations] */
} Level;

typedef struct {
    Level l1, l2, l3;
    i64 inclusive;
    i64 degree;
    i64 *ctr; /* [l1_hits, l2_hits, l3_hits, dram, l2_back_inv,
                  pf_issued, pf_hits] */
} Ctx;

/* Python's % (always non-negative) — foreign pressure lines are negative. */
static inline i64 set_of(i64 line, i64 nsets) {
    i64 m = line % nsets;
    return m < 0 ? m + nsets : m;
}

static inline i64 find_way(const Level *L, i64 base, i64 n, i64 line) {
    const i64 *t = L->tags + base;
    for (i64 w = 0; w < n; ++w)
        if (t[w] == line)
            return w;
    return -1;
}

static inline void promote(Level *L, i64 base, i64 n, i64 w) {
    i64 tag = L->tags[base + w];
    u8 f = L->flags[base + w];
    memmove(L->tags + base + w, L->tags + base + w + 1,
            (size_t)(n - 1 - w) * sizeof(i64));
    memmove(L->flags + base + w, L->flags + base + w + 1,
            (size_t)(n - 1 - w) * sizeof(u8));
    L->tags[base + n - 1] = tag;
    L->flags[base + n - 1] = f;
}

static int level_probe(const Level *L, i64 line) {
    i64 s = set_of(line, L->nsets);
    return find_way(L, s * L->ways, L->occ[s], line) >= 0;
}

/* cache.touch(): LRU-promote + hit/miss counters; no allocation. */
static int level_touch(Level *L, i64 line, u8 *flag_out) {
    i64 s = set_of(line, L->nsets);
    i64 base = s * L->ways, n = L->occ[s];
    i64 w = find_way(L, base, n, line);
    if (w < 0) {
        L->ctr[1]++;
        return 0;
    }
    *flag_out = L->flags[base + w];
    L->flags[base + w] = 0; /* demand touch consumes the prefetch flag */
    promote(L, base, n, w);
    L->ctr[0]++;
    return 1;
}

/* cache.insert(): allocate at MRU; returns 1 and the victim on eviction.
   Present lines are promoted and their flag OR-ed (victim re-insertion). */
static int level_insert(Level *L, i64 line, u8 flag, i64 *victim,
                        u8 *victim_flag) {
    i64 s = set_of(line, L->nsets);
    i64 base = s * L->ways, n = L->occ[s];
    i64 w = find_way(L, base, n, line);
    if (w >= 0) {
        L->flags[base + w] |= flag;
        promote(L, base, n, w);
        return 0;
    }
    int evicted = 0;
    if (n >= L->ways) {
        *victim = L->tags[base];
        *victim_flag = L->flags[base];
        memmove(L->tags + base, L->tags + base + 1,
                (size_t)(n - 1) * sizeof(i64));
        memmove(L->flags + base, L->flags + base + 1,
                (size_t)(n - 1) * sizeof(u8));
        n--;
        L->ctr[2]++;
        evicted = 1;
    }
    L->tags[base + n] = line;
    L->flags[base + n] = flag;
    L->occ[s] = n + 1;
    return evicted;
}

/* cache.invalidate(): remove, keeping the order of the others. */
static int level_invalidate(Level *L, i64 line, int count_stat) {
    i64 s = set_of(line, L->nsets);
    i64 base = s * L->ways, n = L->occ[s];
    i64 w = find_way(L, base, n, line);
    if (w < 0)
        return 0;
    memmove(L->tags + base + w, L->tags + base + w + 1,
            (size_t)(n - 1 - w) * sizeof(i64));
    memmove(L->flags + base + w, L->flags + base + w + 1,
            (size_t)(n - 1 - w) * sizeof(u8));
    L->occ[s] = n - 1;
    if (count_stat)
        L->ctr[3]++;
    return 1;
}

static void clear_flag(Level *L, i64 line) {
    i64 s = set_of(line, L->nsets);
    i64 base = s * L->ways;
    i64 w = find_way(L, base, L->occ[s], line);
    if (w >= 0)
        L->flags[base + w] = 0;
}

static void insert_l3_inclusive(Ctx *c, i64 line, u8 flag) {
    i64 victim = 0;
    u8 vf = 0;
    if (level_insert(&c->l3, line, flag, &victim, &vf)) {
        /* Inclusion: the L3 victim is forced out of the inner levels. */
        if (level_invalidate(&c->l2, victim, 1))
            c->ctr[4]++;
        level_invalidate(&c->l1, victim, 1);
    }
}

static void fill_l2(Ctx *c, i64 line, u8 flag) {
    i64 victim = 0;
    u8 vf = 0;
    if (level_insert(&c->l2, line, flag, &victim, &vf) && !c->inclusive) {
        /* Victim-style L3 catches L2 evictions; the prefetch flag travels
           with the line so an eventual demand hit still counts. */
        i64 v2 = 0;
        u8 vf2 = 0;
        level_insert(&c->l3, victim, vf, &v2, &vf2);
    }
}

static void fill_l1(Ctx *c, i64 line) {
    i64 victim = 0;
    u8 vf = 0;
    level_insert(&c->l1, line, 0, &victim, &vf);
}

static void issue_prefetches(Ctx *c, i64 miss_line) {
    for (i64 off = 1; off <= c->degree; ++off) {
        i64 line = miss_line + off;
        if (level_probe(&c->l1, line) || level_probe(&c->l2, line))
            continue;
        c->ctr[5]++;
        if (c->inclusive)
            insert_l3_inclusive(c, line, 1);
        fill_l2(c, line, 1);
    }
}

static void access_line(Ctx *c, i64 line) {
    u8 flag = 0;
    if (level_touch(&c->l1, line, &flag)) {
        /* Prefetched lines never reach L1 without being demanded first,
           so no flag can be pending here. */
        c->ctr[0]++;
        return;
    }
    if (level_touch(&c->l2, line, &flag)) {
        if (flag) {
            c->ctr[6]++;
            /* Mirror the reference's single bookkeeping entry: consuming
               the prefetch clears the flag on any L3 copy too. */
            clear_flag(&c->l3, line);
        }
        c->ctr[1]++;
        fill_l1(c, line);
        return;
    }
    if (level_touch(&c->l3, line, &flag)) {
        if (flag)
            c->ctr[6]++;
        c->ctr[2]++;
        if (!c->inclusive) {
            /* Non-inclusive victim L3: the line moves up (uncounted
               removal, matching the reference's invalidation rollback). */
            level_invalidate(&c->l3, line, 0);
        }
        fill_l2(c, line, 0);
        fill_l1(c, line);
        return;
    }
    c->ctr[3]++;
    if (c->inclusive)
        insert_l3_inclusive(c, line, 0);
    fill_l2(c, line, 0);
    fill_l1(c, line);
    if (c->degree > 0)
        issue_prefetches(c, line);
}

static Ctx make_ctx(i64 *t1, u8 *f1, i64 *o1, i64 n1, i64 w1, i64 *c1,
                    i64 *t2, u8 *f2, i64 *o2, i64 n2, i64 w2, i64 *c2,
                    i64 *t3, u8 *f3, i64 *o3, i64 n3, i64 w3, i64 *c3,
                    i64 inclusive, i64 degree, i64 *hier_ctr) {
    Ctx c;
    c.l1 = (Level){t1, f1, o1, n1, w1, c1};
    c.l2 = (Level){t2, f2, o2, n2, w2, c2};
    c.l3 = (Level){t3, f3, o3, n3, w3, c3};
    c.inclusive = inclusive;
    c.degree = degree;
    c.ctr = hier_ctr;
    return c;
}

void repro_replay(const i64 *lines, i64 n_lines,
                  i64 *t1, u8 *f1, i64 *o1, i64 n1, i64 w1, i64 *c1,
                  i64 *t2, u8 *f2, i64 *o2, i64 n2, i64 w2, i64 *c2,
                  i64 *t3, u8 *f3, i64 *o3, i64 n3, i64 w3, i64 *c3,
                  i64 inclusive, i64 degree, i64 *hier_ctr) {
    Ctx c = make_ctx(t1, f1, o1, n1, w1, c1, t2, f2, o2, n2, w2, c2,
                     t3, f3, o3, n3, w3, c3, inclusive, degree, hier_ctr);
    for (i64 i = 0; i < n_lines; ++i)
        access_line(&c, lines[i]);
}

void repro_pressure(i64 evict_lines, i64 seed_stride,
                    i64 *t1, u8 *f1, i64 *o1, i64 n1, i64 w1, i64 *c1,
                    i64 *t2, u8 *f2, i64 *o2, i64 n2, i64 w2, i64 *c2,
                    i64 *t3, u8 *f3, i64 *o3, i64 n3, i64 w3, i64 *c3,
                    i64 inclusive, i64 degree, i64 *hier_ctr) {
    Ctx c = make_ctx(t1, f1, o1, n1, w1, c1, t2, f2, o2, n2, w2, c2,
                     t3, f3, o3, n3, w3, c3, inclusive, degree, hier_ctr);
    for (i64 i = 0; i < evict_lines; ++i) {
        i64 foreign = -(1 + i * seed_stride);
        if (c.inclusive) {
            insert_l3_inclusive(&c, foreign, 0);
        } else {
            i64 victim = 0;
            u8 vf = 0;
            level_insert(&c.l3, foreign, 0, &victim, &vf);
        }
    }
}
