/* Native inner loops for the NN kernels (Tensor, Batch, Optim).

   Exactness contract: every loop performs, per output element, the same
   floating-point operations in the same order as the OCaml loop it
   replaces -- one accumulator, k-sequential dot products, the
   [x(i) = 0.0] row skip of gemv_t/ger, Adam's update written term by
   term -- so every result is bit-identical to the scalar path.  Build
   with -ffp-contract=off: otherwise GCC fuses [a + b * c] into an FMA on
   any ISA that has one, which rounds once instead of twice.  No
   -ffast-math and no reassociation: vectorizing an elementwise loop
   (ger, gemv_t, Adam) is exact, vectorizing a reduction (gemv) is not,
   and the compiler only does the former without those flags.

   The OCaml wrappers check every length before calling here; these
   functions trust their arguments, never allocate and never raise
   ([@@noalloc]).  Float arrays are flat (unboxed doubles), so a
   [float array] value is its own [double *]. */

#define CAML_NAME_SPACE
#include <math.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define FARR(v) ((double *)(v))
#define BUF(v) ((double *)Caml_ba_data_val(v))

/* y = M x  (M : rows x cols) */
static void gemv(const double *m, const double *x, double *y, intnat rows,
                 intnat cols)
{
  for (intnat i = 0; i < rows; i++) {
    const double *mr = m + i * cols;
    double acc = 0.0;
    for (intnat j = 0; j < cols; j++) acc = acc + mr[j] * x[j];
    y[i] = acc;
  }
}

/* y += sum_k d[k] r[k] over [k] = 1..4 row vectors, added one after the
   other to each element: the additions [k] successive axpy passes make,
   in the same order, with [y] read and written once */
static void axpy_group(double *y, const double *const *r, const double *d,
                       int k, intnat len)
{
  switch (k) {
  case 4:
    for (intnat j = 0; j < len; j++) {
      double t = y[j];
      t = t + r[0][j] * d[0];
      t = t + r[1][j] * d[1];
      t = t + r[2][j] * d[2];
      t = t + r[3][j] * d[3];
      y[j] = t;
    }
    break;
  case 3:
    for (intnat j = 0; j < len; j++) {
      double t = y[j];
      t = t + r[0][j] * d[0];
      t = t + r[1][j] * d[1];
      t = t + r[2][j] * d[2];
      y[j] = t;
    }
    break;
  case 2:
    for (intnat j = 0; j < len; j++) {
      double t = y[j];
      t = t + r[0][j] * d[0];
      t = t + r[1][j] * d[1];
      y[j] = t;
    }
    break;
  case 1:
    for (intnat j = 0; j < len; j++) y[j] = y[j] + r[0][j] * d[0];
    break;
  }
}

/* y = M^T x  (x : rows, y : cols); rows with x(i) = 0.0 are skipped.
   Non-skipped rows are added four at a time (axpy_group), which keeps
   each element's row order. */
static void gemv_t(const double *m, const double *x, double *y, intnat rows,
                   intnat cols)
{
  const double *r[4];
  double d[4];
  int k = 0;
  for (intnat j = 0; j < cols; j++) y[j] = 0.0;
  for (intnat i = 0; i < rows; i++) {
    if (x[i] != 0.0) {
      r[k] = m + i * cols;
      d[k] = x[i];
      if (++k == 4) {
        axpy_group(y, r, d, k, cols);
        k = 0;
      }
    }
  }
  axpy_group(y, r, d, k, cols);
}

/* M += alpha x y^T; rows with alpha * x(i) = 0.0 are skipped */
static void ger(double *m, double alpha, const double *x, const double *y,
                intnat rows, intnat cols)
{
  for (intnat i = 0; i < rows; i++) {
    double *mr = m + i * cols;
    double xi = alpha * x[i];
    if (xi != 0.0)
      for (intnat j = 0; j < cols; j++) mr[j] = mr[j] + xi * y[j];
  }
}

value nv_gemv(value m, value x, value y, value rows, value cols)
{
  gemv(FARR(m), FARR(x), FARR(y), Long_val(rows), Long_val(cols));
  return Val_unit;
}

value nv_gemv_t(value m, value x, value y, value rows, value cols)
{
  gemv_t(FARR(m), FARR(x), FARR(y), Long_val(rows), Long_val(cols));
  return Val_unit;
}

value nv_ger(value m, value alpha, value x, value y, value rows, value cols)
{
  ger(FARR(m), Double_val(alpha), FARR(x), FARR(y), Long_val(rows),
      Long_val(cols));
  return Val_unit;
}

value nv_ger_byte(value *argv, int argn)
{
  (void)argn;
  return nv_ger(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5]);
}

/* y(r) = W x(r) + b for [rows] row-major rows: gemv's accumulation, then
   the bias added to the finished dot.  Four rows share each pass over a
   weight row; every output still has its own k-sequential accumulator. */
value nv_dense_rows(value w, value b, value x, value y, value rows,
                    value in_dim, value out_dim)
{
  const double *wd = FARR(w), *bd = FARR(b), *xd = BUF(x);
  double *yd = BUF(y);
  intnat n = Long_val(rows), ni = Long_val(in_dim), no = Long_val(out_dim);
  intnat r = 0;
  for (; r + 4 <= n; r += 4) {
    const double *x0 = xd + r * ni, *x1 = x0 + ni, *x2 = x1 + ni,
                 *x3 = x2 + ni;
    double *y0 = yd + r * no;
    for (intnat o = 0; o < no; o++) {
      const double *wr = wd + o * ni;
      double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
      for (intnat k = 0; k < ni; k++) {
        double wk = wr[k];
        a0 = a0 + wk * x0[k];
        a1 = a1 + wk * x1[k];
        a2 = a2 + wk * x2[k];
        a3 = a3 + wk * x3[k];
      }
      y0[o] = a0 + bd[o];
      y0[no + o] = a1 + bd[o];
      y0[2 * no + o] = a2 + bd[o];
      y0[3 * no + o] = a3 + bd[o];
    }
  }
  for (; r < n; r++) {
    const double *xr = xd + r * ni;
    double *yr = yd + r * no;
    for (intnat o = 0; o < no; o++) {
      const double *wr = wd + o * ni;
      double acc = 0.0;
      for (intnat k = 0; k < ni; k++) acc = acc + wr[k] * xr[k];
      yr[o] = acc + bd[o];
    }
  }
  return Val_unit;
}

value nv_dense_rows_byte(value *argv, int argn)
{
  (void)argn;
  return nv_dense_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6]);
}

/* g += alpha dy(r) x(ix(r))^T over [rows] rows of dy, in row order for
   every element of g -- the same additions as [rows] successive [ger]
   calls, with the same zero skip.  The row loop sits inside the
   output-row loop and non-skipped rows are added four at a time
   (axpy_group), so a row of g is read and written once per four.  [ix]
   is an [int array option] mapping a dy row to its x row; [None] is the
   identity. */
value nv_ger_rows(value g, value alpha, value dy, value x, value ix,
                  value rows, value out_dim, value in_dim)
{
  double *gd = FARR(g);
  const double *dyd = BUF(dy), *xd = BUF(x);
  double a = Double_val(alpha);
  intnat n = Long_val(rows), no = Long_val(out_dim), ni = Long_val(in_dim);
  value idx = Is_block(ix) ? Field(ix, 0) : Val_unit;
  const double *xs[4];
  double ds[4];
  for (intnat i = 0; i < no; i++) {
    double *gr = gd + i * ni;
    int k = 0;
    for (intnat r = 0; r < n; r++) {
      double di = a * dyd[r * no + i];
      if (di != 0.0) {
        intnat xr = Is_block(idx) ? Long_val(Field(idx, r)) : r;
        xs[k] = xd + xr * ni;
        ds[k] = di;
        if (++k == 4) {
          axpy_group(gr, xs, ds, k, ni);
          k = 0;
        }
      }
    }
    axpy_group(gr, xs, ds, k, ni);
  }
  return Val_unit;
}

value nv_ger_rows_byte(value *argv, int argn)
{
  (void)argn;
  return nv_ger_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                     argv[6], argv[7]);
}

/* dx(r) = W^T dy(r) for [rows] rows: [gemv_t] row by row */
value nv_gemv_t_rows(value w, value dy, value dx, value rows, value out_dim,
                     value in_dim)
{
  const double *wd = FARR(w), *dyd = BUF(dy);
  double *dxd = BUF(dx);
  intnat n = Long_val(rows), no = Long_val(out_dim), ni = Long_val(in_dim);
  for (intnat r = 0; r < n; r++)
    gemv_t(wd, dyd + r * no, dxd + r * ni, no, ni);
  return Val_unit;
}

value nv_gemv_t_rows_byte(value *argv, int argn)
{
  (void)argn;
  return nv_gemv_t_rows(argv[0], argv[1], argv[2], argv[3], argv[4],
                        argv[5]);
}

/* Adam's elementwise update; [k] holds, in order: scale, beta1,
   1 - beta1, beta2, 1 - beta2, bias corrections 1 and 2, lr, eps */
value nv_adam(value p, value g, value m, value v, value k)
{
  double *pd = FARR(p), *md = FARR(m), *vd = FARR(v);
  const double *gd = FARR(g), *kd = FARR(k);
  double scale = kd[0], b1 = kd[1], omb1 = kd[2], b2 = kd[3], omb2 = kd[4],
         bc1 = kd[5], bc2 = kd[6], lr = kd[7], eps = kd[8];
  intnat n = Wosize_val(p) / Double_wosize;
  for (intnat i = 0; i < n; i++) {
    double gi = gd[i] / scale;
    md[i] = b1 * md[i] + omb1 * gi;
    vd[i] = b2 * vd[i] + omb2 * gi * gi;
    double mhat = md[i] / bc1, vhat = vd[i] / bc2;
    pd[i] = pd[i] - lr * mhat / (sqrt(vhat) + eps);
  }
  return Val_unit;
}
