/* One instruction-set variant of the row kernels and Adam.

   kernels.c includes this file once per variant, after defining
     ISA_NAME   the variant's name,
     SFX        the name suffix of the variant's functions,
     TGT        its GCC target attribute (empty for the baseline build),
     VW         doubles per vector register (2, 4 or 8),
     DENSE_TR, DENSE_TO   dense_rows' tile: rows x vectors of outputs,
     AXPY_TA, AXPY_TJ     ger_rows/gemv_t_rows' tile: rows x vectors,
   (undefined again at the end), so every variant is this one source,
   with tiles sized to its register file.  Each vector lane is one
   output element and runs that element's scalar operations in their
   scalar order: vectors only put independent outputs side by side (see
   the exactness contract in kernels.c). */

#define CAT_(a, b) a##b
#define CAT(a, b) CAT_(a, b)
#define F(name) CAT(name, SFX)
#define INL static inline __attribute__((always_inline)) TGT

/* rows per cache block of the row kernels: 64 rows of 112 doubles are
   56 KB */
#define ROWS_CHUNK 64

/* unaligned, aliasing vector views of double arrays */
typedef double F(vd)
    __attribute__((vector_size(VW * 8), aligned(8), may_alias));

/* the first [n] lanes from [p], zero above; [n] = VW is a plain load */
INL F(vd) F(load_n)(const double *p, int n)
{
  if (n == VW) return *(const F(vd) *)p;
  F(vd) v = {0};
  for (int l = 0; l < n; l++) v[l] = p[l];
  return v;
}

INL void F(store_n)(double *p, F(vd) v, int n)
{
  if (n == VW) {
    *(F(vd) *)p = v;
    return;
  }
  for (int l = 0; l < n; l++) p[l] = v[l];
}

/* [*p != 0.0], tested on the bits (NaN counts as nonzero): an integer
   test leaves the vector ports to the arithmetic.  The bits are read
   through a may_alias type, so the load is ordered against every store
   to the double; it is volatile so that GCC does not merge it with the
   load of the value itself, which then feeds a broadcast straight from
   memory. */
typedef uint64_t F(u64a) __attribute__((may_alias));

INL int F(nonzero)(const double *p)
{
  return (*(const volatile F(u64a) *)p << 1) != 0;
}

/* dense_rows tile: rows [0, tr) of [x]/[y] x outputs [o0, o0 + to VW).
   Per k, one row of the transposed weights [wt] (stride [nop], zero
   padded to whole vectors) is multiplied by x(r, k) and added to every
   output's accumulator: each output is the k-sequential dot of gemv,
   with the bias added to the finished sum. */
INL void F(dense_tile)(const int tr, const int to, const double *wt,
                       intnat nop, const double *b, const double *x,
                       double *y, intnat ni, intnat no, intnat o0)
{
  F(vd) acc[DENSE_TR][DENSE_TO];
  for (int a = 0; a < tr; a++)
    for (int t = 0; t < to; t++) acc[a][t] = (F(vd)){0};
  for (intnat k = 0; k < ni; k++) {
    const double *wk = wt + k * nop + o0;
    F(vd) w[DENSE_TO];
    for (int t = 0; t < to; t++) w[t] = *(const F(vd) *)(wk + t * VW);
    for (int a = 0; a < tr; a++) {
      double xk = x[a * ni + k];
      for (int t = 0; t < to; t++) acc[a][t] = acc[a][t] + w[t] * xk;
    }
  }
  for (int t = 0; t < to; t++) {
    intnat o = o0 + t * VW;
    int n = no - o < VW ? (int)(no - o) : VW;
    F(vd) bv = F(load_n)(b + o, n);
    for (int a = 0; a < tr; a++) F(store_n)(y + a * no + o, acc[a][t] + bv, n);
  }
}

/* y(r) = W x(r) + b; [wt] is scratch for W transposed, ni x nop */
static TGT void F(dense_rows)(const double *w, const double *b,
                              const double *x, double *y, double *wt,
                              intnat n, intnat ni, intnat no)
{
  intnat nop = (no + VW - 1) / VW * VW;
  for (intnat k = 0; k < ni; k++) {
    for (intnat o = 0; o < no; o++) wt[k * nop + o] = w[o * ni + k];
    for (intnat o = no; o < nop; o++) wt[k * nop + o] = 0.0;
  }
  /* rows go in chunks that stay in cache; within one, output tiles go
     outermost, so a tile's slice of [wt] stays in L1 while the chunk's
     rows stream past it */
  for (intnat r0 = 0; r0 < n; r0 += ROWS_CHUNK) {
    intnat re = n - r0 < ROWS_CHUNK ? n : r0 + ROWS_CHUNK;
    intnat o = 0;
    for (; o + DENSE_TO * VW <= nop; o += DENSE_TO * VW) {
      intnat r = r0;
      for (; r + DENSE_TR <= re; r += DENSE_TR)
        F(dense_tile)(DENSE_TR, DENSE_TO, wt, nop, b, x + r * ni, y + r * no,
                      ni, no, o);
      for (; r < re; r++)
        F(dense_tile)(1, DENSE_TO, wt, nop, b, x + r * ni, y + r * no, ni, no,
                      o);
    }
    for (; o < nop; o += VW) {
      intnat r = r0;
      for (; r + DENSE_TR <= re; r += DENSE_TR)
        F(dense_tile)(DENSE_TR, 1, wt, nop, b, x + r * ni, y + r * no, ni, no,
                      o);
      for (; r < re; r++)
        F(dense_tile)(1, 1, wt, nop, b, x + r * ni, y + r * no, ni, no, o);
    }
  }
}

/* The shared tile of ger_rows and gemv_t_rows: [ta] output rows (at
   [out], stride [ni]) x [tj] vectors of columns, the last one [lanes]
   wide.  Over s = 0 .. ns-1 in order, source row s ([src] + ix(s) ni, or
   s ni when [ix] is NULL) is scaled by c = coef(s, a) and added to
   output row a -- unless c = 0.0, the scalar kernels' zero skip.  The
   tile stays in registers for the whole sequence, so each element sees
   its additions in sequence order, loaded and stored once per call. */
INL void F(axpy_tile)(const int ta, const int tj, int lanes, double *out,
                      intnat ni, int zero, const double *src,
                      const value *ix, intnat ns, const double *coef,
                      intnat cs, intnat ca)
{
  F(vd) acc[AXPY_TA][AXPY_TJ];
  for (int a = 0; a < ta; a++)
    for (int t = 0; t < tj; t++) {
      int n = t == tj - 1 ? lanes : VW;
      acc[a][t] = zero ? (F(vd)){0} : F(load_n)(out + a * ni + t * VW, n);
    }
  for (intnat s = 0; s < ns; s++) {
    const double *sr = src + (ix ? Long_val(ix[s]) : s) * ni;
    F(vd) v[AXPY_TJ];
    for (int t = 0; t < tj; t++)
      v[t] = F(load_n)(sr + t * VW, t == tj - 1 ? lanes : VW);
    const double *cr = coef + s * cs;
    for (int a = 0; a < ta; a++)
      if (F(nonzero)(cr + a * ca)) {
        double c = cr[a * ca];
        for (int t = 0; t < tj; t++) acc[a][t] = acc[a][t] + c * v[t];
      }
  }
  for (int a = 0; a < ta; a++)
    for (int t = 0; t < tj; t++)
      F(store_n)(out + a * ni + t * VW, acc[a][t], t == tj - 1 ? lanes : VW);
}

/* every column tile of [ta] output rows: whole tiles, single vectors,
   then the partial last vector */
INL void F(axpy_rows)(const int ta, double *out, intnat ni, int zero,
                      const double *src, const value *ix, intnat ns,
                      const double *coef, intnat cs, intnat ca)
{
  intnat j = 0;
  for (; j + AXPY_TJ * VW <= ni; j += AXPY_TJ * VW)
    F(axpy_tile)(ta, AXPY_TJ, VW, out + j, ni, zero, src + j, ix, ns, coef,
                 cs, ca);
  for (; j + VW <= ni; j += VW)
    F(axpy_tile)(ta, 1, VW, out + j, ni, zero, src + j, ix, ns, coef, cs, ca);
  if (j < ni)
    F(axpy_tile)(ta, 1, (int)(ni - j), out + j, ni, zero, src + j, ix, ns,
                 coef, cs, ca);
}

/* g += dy(r) x(ix(r))^T over rows r = 0 .. n-1 of dy, in row order,
   skipping dy(r, i) = 0.0: g's rows are the tile rows, the sequence runs
   over dy's rows, one chunk of them per call of the tile */
static TGT void F(ger_rows)(double *g, const double *dy, const double *x,
                            const value *ix, intnat n, intnat no, intnat ni)
{
  /* rows go in chunks of ROWS_CHUNK, in order, so a chunk of x and dy
     stays in cache while every tile of g passes over it */
  for (intnat r0 = 0; r0 < n; r0 += ROWS_CHUNK) {
    intnat ns = n - r0 < ROWS_CHUNK ? n - r0 : ROWS_CHUNK;
    const double *dyc = dy + r0 * no;
    const value *ixc = ix ? ix + r0 : NULL;
    const double *xc = ix ? x : x + r0 * ni;
    intnat i = 0;
    for (; i + AXPY_TA <= no; i += AXPY_TA)
      F(axpy_rows)(AXPY_TA, g + i * ni, ni, 0, xc, ixc, ns, dyc + i, no, 1);
    for (; i < no; i++)
      F(axpy_rows)(1, g + i * ni, ni, 0, xc, ixc, ns, dyc + i, no, 1);
  }
}

/* dx(r) = W^T dy(r) for r = 0 .. n-1, skipping dy(r, i) = 0.0: dx's rows
   are the tile rows, the sequence runs over W's rows */
static TGT void F(gemv_t_rows)(const double *w, const double *dy, double *dx,
                               intnat n, intnat no, intnat ni)
{
  intnat r = 0;
  for (; r + AXPY_TA <= n; r += AXPY_TA)
    F(axpy_rows)(AXPY_TA, dx + r * ni, ni, 1, w, NULL, no, dy + r * no, 1,
                 no);
  for (; r < n; r++)
    F(axpy_rows)(1, dx + r * ni, ni, 1, w, NULL, no, dy + r * no, 1, no);
}

/* Adam's elementwise update, term by term as in Optim; [k] holds, in
   order: scale, beta1, 1 - beta1, beta2, 1 - beta2, bias corrections 1
   and 2, lr, eps */
static TGT void F(adam)(double *p, const double *g, double *m, double *v,
                        const double *k, intnat n)
{
  double scale = k[0], b1 = k[1], omb1 = k[2], b2 = k[3], omb2 = k[4],
         bc1 = k[5], bc2 = k[6], lr = k[7], eps = k[8];
  for (intnat i = 0; i < n; i++) {
    double gi = g[i] / scale;
    m[i] = b1 * m[i] + omb1 * gi;
    v[i] = b2 * v[i] + omb2 * gi * gi;
    double mhat = m[i] / bc1, vhat = v[i] / bc2;
    p[i] = p[i] - lr * mhat / (sqrt(vhat) + eps);
  }
}

static const struct nv_isa F(nv_isa) = {
  ISA_NAME, F(dense_rows), F(ger_rows), F(gemv_t_rows), F(adam)
};

#undef INL
#undef F
#undef CAT
#undef CAT_
#undef ISA_NAME
#undef SFX
#undef TGT
#undef VW
#undef DENSE_TR
#undef DENSE_TO
#undef AXPY_TA
#undef AXPY_TJ
