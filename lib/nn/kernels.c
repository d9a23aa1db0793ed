/* Native inner loops for the NN kernels (Tensor, Batch, Optim).

   Exactness contract: every output element goes through the same
   floating-point operations, in the same order, as in the OCaml loop it
   replaces -- one accumulator starting at 0.0, k-sequential dot products
   with the bias added after, gradient rows added in row order with the
   [x(i) = 0.0] skip of gemv_t/ger, Adam's update written term by term --
   so every result is bit-identical to the scalar path.

   The row kernels get their speed from vectors that hold *independent
   outputs*, never from splitting one output's sum:
   - dense_rows runs in axpy form: W is transposed into caller-provided
     scratch, and for each k one row of W^T, times x(r, k), is added to a
     register tile of outputs.  Each output keeps its own k-sequential
     accumulator; only the order in which *different* outputs are
     computed changes.
   - ger_rows keeps a tile of gW in registers across all the rows of dy,
     in row order, with the zero skip per (row, element).
   - gemv_t_rows keeps a tile of dx rows in registers while each W row
     is loaded once and shared by the tile.
   Mul, add, div and sqrt are correctly rounded on every ISA, so a lane
   computes what the scalar loop computes.  Build with -ffp-contract=off:
   otherwise GCC fuses [a + b * c] into an FMA on any ISA that has one,
   which rounds once instead of twice.  No -ffast-math and no
   reassociation.  -fno-math-errno only lets Adam's sqrt be a vector
   instruction; its argument vhat is never negative, so errno is never
   set and the value is the same.

   ISA dispatch: kernels_simd.h is the one source of the row kernels and
   Adam.  It is compiled here once per instruction set -- the baseline
   (SSE2 on x86-64, plain C elsewhere), AVX2 and AVX-512 -- through GCC
   target attributes, with tiles sized to each register file.  The
   widest variant the CPU runs is picked once, at load time.  All
   variants give the same bits; batched.kernels checks every variant the
   host can execute against the OCaml reference loops.

   The OCaml wrappers check every length before calling here; these
   functions trust their arguments, never allocate and never raise
   ([@@noalloc]).  Float arrays are flat (unboxed doubles), so a
   [float array] value is its own [double *]. */

#define CAML_NAME_SPACE
#include <math.h>
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
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

struct nv_isa {
  const char *name;
  void (*dense_rows)(const double *w, const double *b, const double *x,
                     double *y, double *wt, intnat n, intnat ni, intnat no);
  void (*ger_rows)(double *g, const double *dy, const double *x,
                   const value *ix, intnat n, intnat no, intnat ni);
  void (*gemv_t_rows)(const double *w, const double *dy, double *dx,
                      intnat n, intnat no, intnat ni);
  void (*adam)(double *p, const double *g, double *m, double *v,
               const double *k, intnat n);
};

/* Tiles were chosen per ISA by timing the agent's combiner shapes
   (112 -> 128, 1500 rows): the accumulators of a tile must fit the
   register file with room for the shared operands. */
#define ISA_NAME "default"
#define SFX _default
#define TGT
#define VW 2
#define DENSE_TR 2
#define DENSE_TO 4
#define AXPY_TA 2
#define AXPY_TJ 4
#include "kernels_simd.h"

/* variants nv_isas[0 .. nv_isa_avail) run on this CPU; nv_sel picks
   the widest, unless a test selected another */
static int nv_isa_avail = 1;
static int nv_sel = 0;

#if defined(__x86_64__) && defined(__GNUC__)
#define ISA_NAME "avx2"
#define SFX _avx2
#define TGT __attribute__((target("avx2")))
#define VW 4
#define DENSE_TR 3
#define DENSE_TO 3
#define AXPY_TA 3
#define AXPY_TJ 3
#include "kernels_simd.h"

#define ISA_NAME "avx512"
#define SFX _avx512
#define TGT __attribute__((target("avx512f")))
#define VW 8
#define DENSE_TR 8
#define DENSE_TO 3
#define AXPY_TA 8
#define AXPY_TJ 3
#include "kernels_simd.h"

static const struct nv_isa *const nv_isas[] = {
  &nv_isa_default, &nv_isa_avx2, &nv_isa_avx512
};

__attribute__((constructor)) static void nv_isa_detect(void)
{
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    nv_isa_avail = 2;
    if (__builtin_cpu_supports("avx512f")) nv_isa_avail = 3;
  }
  nv_sel = nv_isa_avail - 1;
}
#else
static const struct nv_isa *const nv_isas[] = { &nv_isa_default };
#endif

#define nv_cur (nv_isas[nv_sel])

value nv_isa_count(value unit)
{
  (void)unit;
  return Val_long(nv_isa_avail);
}

value nv_isa_name(value i)
{
  return caml_copy_string(nv_isas[Long_val(i)]->name);
}

value nv_isa_current(value unit)
{
  (void)unit;
  return Val_long(nv_sel);
}

value nv_isa_select(value i)
{
  nv_sel = Long_val(i);
  return Val_unit;
}

value nv_gemv(value m, value x, value y, value rows, value cols)
{
  gemv(FARR(m), FARR(x), FARR(y), Long_val(rows), Long_val(cols));
  return Val_unit;
}

/* y = M^T x (x : rows, y : cols): gemv_t_rows over one row */
value nv_gemv_t(value m, value x, value y, value rows, value cols)
{
  nv_cur->gemv_t_rows(FARR(m), FARR(x), FARR(y), 1, Long_val(rows),
                      Long_val(cols));
  return Val_unit;
}

/* M += x y^T: ger_rows over one row */
value nv_ger(value m, value x, value y, value rows, value cols)
{
  nv_cur->ger_rows(FARR(m), FARR(x), FARR(y), NULL, 1, Long_val(rows),
                   Long_val(cols));
  return Val_unit;
}

/* y(r) = W x(r) + b for [rows] row-major rows; [wt] is scratch of at
   least in_dim * out_dim rounded up to a multiple of 8 doubles */
value nv_dense_rows(value w, value b, value x, value y, value wt, value rows,
                    value in_dim, value out_dim)
{
  nv_cur->dense_rows(FARR(w), FARR(b), BUF(x), BUF(y), BUF(wt),
                     Long_val(rows), Long_val(in_dim), Long_val(out_dim));
  return Val_unit;
}

value nv_dense_rows_byte(value *argv, int argn)
{
  (void)argn;
  return nv_dense_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                       argv[6], argv[7]);
}

/* g += dy(r) x(ix(r))^T over [rows] rows of dy.  [ix] is an
   [int array option] mapping a dy row to its x row; [None] is the
   identity. */
value nv_ger_rows(value g, value dy, value x, value ix, value rows,
                  value out_dim, value in_dim)
{
  const value *ixp = Is_block(ix) ? (const value *)Field(ix, 0) : NULL;
  nv_cur->ger_rows(FARR(g), BUF(dy), BUF(x), ixp, Long_val(rows),
                   Long_val(out_dim), Long_val(in_dim));
  return Val_unit;
}

value nv_ger_rows_byte(value *argv, int argn)
{
  (void)argn;
  return nv_ger_rows(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                     argv[6]);
}

/* dx(r) = W^T dy(r) for [rows] rows */
value nv_gemv_t_rows(value w, value dy, value dx, value rows, value out_dim,
                     value in_dim)
{
  nv_cur->gemv_t_rows(FARR(w), BUF(dy), BUF(dx), Long_val(rows),
                      Long_val(out_dim), Long_val(in_dim));
  return Val_unit;
}

value nv_gemv_t_rows_byte(value *argv, int argn)
{
  (void)argn;
  return nv_gemv_t_rows(argv[0], argv[1], argv[2], argv[3], argv[4],
                        argv[5]);
}

value nv_adam(value p, value g, value m, value v, value k)
{
  nv_cur->adam(FARR(p), FARR(g), FARR(m), FARR(v), FARR(k),
               Wosize_val(p) / Double_wosize);
  return Val_unit;
}
