#include <algorithm>
#include <limits>
#include <stdexcept>

#include "runtime/parallel_for.hpp"
#include "tensor/microkernels.hpp"
#include "tensor/op_helpers.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"

namespace lmmir::tensor {

using detail::make_node;
using detail::needs_grad;
using ophelp::attach;
using mk::gemm_acc;  // AVX2 when available; bitwise equal to the scalar loop
using ophelp::gemm_a_bt_acc_pretransposed;
using ophelp::gemm_at_b_acc;

// Threading of the conv kernels (docs/TENSOR.md, "Parallel conv
// kernels"): every fan-out below splits a range of disjoint outputs —
// output rows, weight columns, input-gradient planes, bias entries — and
// each output element sees exactly the arithmetic, in exactly the order,
// of the serial loop nest, so results are bitwise identical at any
// thread count.

namespace {

struct ConvGeom {
  std::size_t n, cin, h, w;      // input
  std::size_t cout, kh, kw;      // kernel
  std::size_t oh, ow;            // output
  int stride, pad_h, pad_w;

  std::size_t taps() const { return kh * kw; }
  std::size_t patch() const { return cin * kh * kw; }
  std::size_t spatial() const { return oh * ow; }
};

using SampleBuffers = std::vector<ScratchBuffer>;

/// Walk samples [0, n) in groups of at most one sample per pool thread,
/// calling fn(n0, gn, bufs) for samples [n0, n0 + gn) in order.  bufs
/// holds one pooled scratch buffer of `size` floats per sample of a
/// group, which bounds scratch at one buffer per thread.
template <typename Fn>
void for_each_sample_group(std::size_t n, std::size_t size, Fn&& fn) {
  const std::size_t group = std::min(n, runtime::global_threads());
  SampleBuffers bufs;
  bufs.reserve(group);
  for (std::size_t s = 0; s < group; ++s) bufs.emplace_back(size);
  for (std::size_t n0 = 0; n0 < n; n0 += group)
    fn(n0, std::min(group, n - n0), bufs);
}

/// col[cin*kh*kw, oh*ow] for one sample (zero-padded borders).  The
/// patch gather itself lives in tensor/microkernels.hpp so the plan
/// replay (tensor/plan.hpp) shares this exact implementation.
void im2col(const float* x, const ConvGeom& g, float* col) {
  mk::im2col(x, g.cin, g.h, g.w, g.kh, g.kw, g.oh, g.ow, g.stride, g.pad_h,
             g.pad_w, col);
}

/// Rows [j_lo, j_hi) of colᵀ[oh*ow, cin*kh*kw] for one sample: output
/// pixel j's receptive field, zero-padded, as one contiguous row.
void im2row(const float* x, const ConvGeom& g, std::size_t j_lo,
            std::size_t j_hi, float* rows) {
  const std::size_t patch = g.patch();
  for (std::size_t j = j_lo; j < j_hi; ++j) {
    const long y0 = static_cast<long>(j / g.ow) * g.stride - g.pad_h;
    const long x0 = static_cast<long>(j % g.ow) * g.stride - g.pad_w;
    float* dst = rows + j * patch;
    for (std::size_t c = 0; c < g.cin; ++c) {
      for (std::size_t ki = 0; ki < g.kh; ++ki) {
        const long iy = y0 + static_cast<long>(ki);
        if (iy < 0 || iy >= static_cast<long>(g.h)) {
          dst = std::fill_n(dst, g.kw, 0.0f);
          continue;
        }
        const float* xrow = x + (c * g.h + static_cast<std::size_t>(iy)) * g.w;
        for (std::size_t kj = 0; kj < g.kw; ++kj) {
          const long ix = x0 + static_cast<long>(kj);
          *dst++ = ix >= 0 && ix < static_cast<long>(g.w)
                       ? xrow[static_cast<std::size_t>(ix)]
                       : 0.0f;
        }
      }
    }
  }
}

/// Scatter one input channel's col gradients (taps rows) back onto its
/// (padded) input plane: the inverse of that channel's share of im2col.
void col2im_plane_acc(const float* dcol, const ConvGeom& g, float* gx) {
  const std::size_t cols = g.spatial();
  for (std::size_t ki = 0; ki < g.kh; ++ki) {
    for (std::size_t kj = 0; kj < g.kw; ++kj) {
      const float* drow = dcol + (ki * g.kw + kj) * cols;
      for (std::size_t oy = 0; oy < g.oh; ++oy) {
        const long iy = static_cast<long>(oy) * g.stride - g.pad_h +
                        static_cast<long>(ki);
        if (iy < 0 || iy >= static_cast<long>(g.h)) continue;
        for (std::size_t ox = 0; ox < g.ow; ++ox) {
          const long ix = static_cast<long>(ox) * g.stride - g.pad_w +
                          static_cast<long>(kj);
          if (ix < 0 || ix >= static_cast<long>(g.w)) continue;
          gx[static_cast<std::size_t>(iy) * g.w +
             static_cast<std::size_t>(ix)] += drow[oy * g.ow + ox];
        }
      }
    }
  }
}

/// dW[cout, patch] += Σ_ni dY_ni[cout, spatial] · col_niᵀ.  Per group of
/// samples: im2row over (sample, pixel) rows, then the weight columns fan
/// out with the sample loop inside each task, so every dW element still
/// takes one accumulator per sample, samples ascending.
void conv2d_weight_grad(const float* x, const float* gy, const ConvGeom& g,
                        float* dw) {
  const std::size_t patch = g.patch();
  const std::size_t spatial = g.spatial();
  for_each_sample_group(
      g.n, spatial * patch,
      [&](std::size_t n0, std::size_t gn, SampleBuffers& rows) {
        runtime::parallel_for(
            0, gn * spatial, runtime::grain_for_cost(patch),
            [&](std::size_t lo, std::size_t hi) {
              while (lo < hi) {  // the chunk may straddle samples
                const std::size_t s = lo / spatial;
                const std::size_t j_lo = lo % spatial;
                const std::size_t j_hi = std::min(spatial, j_lo + (hi - lo));
                im2row(x + (n0 + s) * g.cin * g.h * g.w, g, j_lo, j_hi,
                       rows[s].data());
                lo += j_hi - j_lo;
              }
            });
        // At least 8 columns per task keeps the accumulator row vectorized.
        const std::size_t col_grain = std::max<std::size_t>(
            8, runtime::grain_for_cost(gn * g.cout * spatial));
        runtime::parallel_for(
            0, patch, col_grain,
            [&](std::size_t k_lo, std::size_t k_hi) {
              for (std::size_t s = 0; s < gn; ++s)
                gemm_a_bt_acc_pretransposed(gy + (n0 + s) * g.cout * spatial,
                                            rows[s].data(), dw, g.cout, spatial,
                                            patch, k_lo, k_hi);
            });
      });
}

/// dX += col2im(Wᵀ · dY), one (sample, input channel) plane per task: the
/// plane's taps rows of dcol are computed into a private zeroed buffer in
/// the full gemm's cout order, then scattered onto the disjoint gx plane.
void conv2d_input_grad(const float* w, const float* gy, const ConvGeom& g,
                       float* dx) {
  const std::size_t taps = g.taps();
  const std::size_t spatial = g.spatial();
  runtime::parallel_for(
      0, g.n * g.cin, runtime::grain_for_cost(g.cout * taps * spatial),
      [&](std::size_t lo, std::size_t hi) {
        ScratchBuffer dcol(taps * spatial);
        for (std::size_t r = lo; r < hi; ++r) {
          const std::size_t ni = r / g.cin;
          const std::size_t c = r % g.cin;
          if (r != lo) std::fill_n(dcol.data(), dcol.size(), 0.0f);
          // dcol[taps, spatial] = W[cout, c's taps]ᵀ · dY_ni[cout, spatial]
          gemm_at_b_acc(w + c * taps, gy + ni * g.cout * spatial, dcol.data(),
                        g.cout, taps, spatial, g.patch());
          col2im_plane_acc(dcol.data(), g, dx + r * g.h * g.w);
        }
      });
}

/// db[c] += Σ_i dY[ni, c, i] for each sample in turn, channels fanned out.
void bias_grad(const float* gy, std::size_t n, std::size_t channels,
               std::size_t plane, float* db) {
  runtime::parallel_for(
      0, channels, runtime::grain_for_cost(n * plane),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c)
          for (std::size_t ni = 0; ni < n; ++ni) {
            const float* row = gy + (ni * channels + c) * plane;
            float acc = 0.0f;
            for (std::size_t i = 0; i < plane; ++i) acc += row[i];
            db[c] += acc;
          }
      });
}

/// Output plane `co` of one sample of conv_transpose2d: every input pixel
/// adds its kernel-weighted footprint, in (ci, hy, hx, ki, kj) order.
void conv_transpose_plane(const float* x, const float* w, const ConvGeom& g,
                          std::size_t co, float* yout) {
  const long stride = g.stride;
  const long pad = g.pad_h;
  for (std::size_t ci = 0; ci < g.cin; ++ci) {
    const float* xin = x + ci * g.h * g.w;
    const float* wk = w + ((ci * g.cout + co) * g.kh) * g.kw;
    for (std::size_t hy = 0; hy < g.h; ++hy) {
      for (std::size_t hx = 0; hx < g.w; ++hx) {
        const float xv = xin[hy * g.w + hx];
        if (xv == 0.0f) continue;
        for (std::size_t ki = 0; ki < g.kh; ++ki) {
          const long oy = static_cast<long>(hy) * stride +
                          static_cast<long>(ki) - pad;
          if (oy < 0 || oy >= static_cast<long>(g.oh)) continue;
          for (std::size_t kj = 0; kj < g.kw; ++kj) {
            const long ox = static_cast<long>(hx) * stride +
                            static_cast<long>(kj) - pad;
            if (ox < 0 || ox >= static_cast<long>(g.ow)) continue;
            yout[static_cast<std::size_t>(oy) * g.ow +
                 static_cast<std::size_t>(ox)] += xv * wk[ki * g.kw + kj];
          }
        }
      }
    }
  }
}

/// conv_transpose2d backward for input channel ci over every sample:
/// gx planes (ni, ci) and gw rows [ci, ·, ·, ·] (either may be null), with
/// the serial loop nest's (ni, hy, hx, co, ki, kj) accumulation order.
void conv_transpose_channel_grad(const float* x, const float* w,
                                 const float* gy_all, const ConvGeom& g,
                                 std::size_t ci, float* gx_all, float* gw_all) {
  const long stride = g.stride;
  const long pad = g.pad_h;
  for (std::size_t ni = 0; ni < g.n; ++ni) {
    const float* xin = x + (ni * g.cin + ci) * g.h * g.w;
    float* gx = gx_all ? gx_all + (ni * g.cin + ci) * g.h * g.w : nullptr;
    for (std::size_t hy = 0; hy < g.h; ++hy) {
      for (std::size_t hx = 0; hx < g.w; ++hx) {
        float gx_acc = 0.0f;
        for (std::size_t co = 0; co < g.cout; ++co) {
          const float* wk = w + ((ci * g.cout + co) * g.kh) * g.kw;
          float* gw =
              gw_all ? gw_all + ((ci * g.cout + co) * g.kh) * g.kw : nullptr;
          const float* gy = gy_all + (ni * g.cout + co) * g.oh * g.ow;
          for (std::size_t ki = 0; ki < g.kh; ++ki) {
            const long oy = static_cast<long>(hy) * stride +
                            static_cast<long>(ki) - pad;
            if (oy < 0 || oy >= static_cast<long>(g.oh)) continue;
            for (std::size_t kj = 0; kj < g.kw; ++kj) {
              const long ox = static_cast<long>(hx) * stride +
                              static_cast<long>(kj) - pad;
              if (ox < 0 || ox >= static_cast<long>(g.ow)) continue;
              const float gyv = gy[static_cast<std::size_t>(oy) * g.ow +
                                   static_cast<std::size_t>(ox)];
              gx_acc += gyv * wk[ki * g.kw + kj];
              if (gw) gw[ki * g.kw + kj] += gyv * xin[hy * g.w + hx];
            }
          }
        }
        if (gx) gx[hy * g.w + hx] += gx_acc;
      }
    }
  }
}

ConvGeom conv_geometry(const Tensor& x, const Tensor& w, int stride,
                       int pad_h, int pad_w, const char* op) {
  if (x.ndim() != 4 || w.ndim() != 4)
    throw std::invalid_argument(std::string(op) + ": expects 4-D x and w");
  if (stride < 1) throw std::invalid_argument(std::string(op) + ": stride<1");
  if (pad_h < 0 || pad_w < 0)
    throw std::invalid_argument(std::string(op) + ": pad<0");
  ConvGeom g;
  g.n = static_cast<std::size_t>(x.dim(0));
  g.cin = static_cast<std::size_t>(x.dim(1));
  g.h = static_cast<std::size_t>(x.dim(2));
  g.w = static_cast<std::size_t>(x.dim(3));
  g.stride = stride;
  g.pad_h = pad_h;
  g.pad_w = pad_w;
  return g;
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int padding) {
  return conv2d(x, w, b, stride, padding, padding);
}

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int pad_h, int pad_w) {
  ConvGeom g = conv_geometry(x, w, stride, pad_h, pad_w, "conv2d");
  g.cout = static_cast<std::size_t>(w.dim(0));
  g.kh = static_cast<std::size_t>(w.dim(2));
  g.kw = static_cast<std::size_t>(w.dim(3));
  if (static_cast<std::size_t>(w.dim(1)) != g.cin)
    throw std::invalid_argument("conv2d: channel mismatch x " +
                                shape_to_string(x.shape()) + " w " +
                                shape_to_string(w.shape()));
  const long oh = (static_cast<long>(g.h) + 2 * pad_h -
                   static_cast<long>(g.kh)) / stride + 1;
  const long ow = (static_cast<long>(g.w) + 2 * pad_w -
                   static_cast<long>(g.kw)) / stride + 1;
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("conv2d: kernel larger than padded input");
  g.oh = static_cast<std::size_t>(oh);
  g.ow = static_cast<std::size_t>(ow);
  if (b.defined() && (b.ndim() != 1 ||
                      static_cast<std::size_t>(b.dim(0)) != g.cout))
    throw std::invalid_argument("conv2d: bias shape mismatch");

  const std::size_t patch = g.patch();
  const std::size_t spatial = g.spatial();
  std::vector<float> y = arena_buffer(g.n * g.cout * spatial);
  // Out-channel rows [c_lo, c_hi) of sample ni from its im2col matrix:
  // gemm_acc's per-row kk order, then the bias add.
  auto gemm_rows = [&](std::size_t ni, std::size_t c_lo, std::size_t c_hi,
                       const float* col) {
    float* yrows = y.data() + (ni * g.cout + c_lo) * spatial;
    gemm_acc(w.data().data() + c_lo * patch, col, yrows, c_hi - c_lo, patch,
             spatial);
    if (b.defined())
      for (std::size_t c = c_lo; c < c_hi; ++c) {
        float* dst = yrows + (c - c_lo) * spatial;
        const float bv = b.data()[c];
        for (std::size_t i = 0; i < spatial; ++i) dst[i] += bv;
      }
  };
  // Per group of samples: each sample's im2col goes to its own pooled
  // buffer (inline at n = 1, as im2col is a fast copy), then the gemm fans
  // out over flat (sample, out-channel) rows, so n = 2 training reaches
  // every thread and n = 1 runs the serial kernel's im2col then gemm.
  for_each_sample_group(
      g.n, patch * spatial,
      [&](std::size_t n0, std::size_t gn, SampleBuffers& cols) {
        runtime::parallel_for(
            0, gn, runtime::grain_for_cost(patch * spatial),
            [&](std::size_t lo, std::size_t hi) {
              for (std::size_t s = lo; s < hi; ++s)
                im2col(x.data().data() + (n0 + s) * g.cin * g.h * g.w, g,
                       cols[s].data());
            });
        runtime::parallel_for(
            0, gn * g.cout, runtime::grain_for_cost(patch * spatial),
            [&](std::size_t lo, std::size_t hi) {
              while (lo < hi) {
                const std::size_t s = lo / g.cout;
                const std::size_t c_lo = lo % g.cout;
                const std::size_t c_hi = std::min(g.cout, c_lo + hi - lo);
                gemm_rows(n0 + s, c_lo, c_hi, cols[s].data());
                lo += c_hi - c_lo;
              }
            });
      });
  auto out = make_node(Shape{static_cast<int>(g.n), static_cast<int>(g.cout),
                             static_cast<int>(g.oh), static_cast<int>(g.ow)},
                       std::move(y));
  plan::record_op(plan::OpKind::kConv2d, out, {&x, &w, &b},
                  {.i0 = stride,
                   .i1 = pad_h,
                   .i2 = pad_w,
                   .i3 = b.defined() ? 1 : 0});
  if (needs_grad({&x, &w, &b})) {
    attach(out, {x, w, b},
           [self = out.get(), px = x.impl(), pw = w.impl(),
            pb = b.defined() ? b.impl() : nullptr, g]() {
             const float* gy = self->grad.data();
             if (pw->requires_grad) {
               pw->ensure_grad();
               conv2d_weight_grad(px->data.data(), gy, g, pw->grad.data());
             }
             if (px->requires_grad) {
               px->ensure_grad();
               conv2d_input_grad(pw->data.data(), gy, g, px->grad.data());
             }
             if (pb && pb->requires_grad) {
               pb->ensure_grad();
               bias_grad(gy, g.n, g.cout, g.spatial(), pb->grad.data());
             }
           });
  }
  return Tensor(out);
}

Tensor conv_transpose2d(const Tensor& x, const Tensor& w, const Tensor& b,
                        int stride, int padding) {
  // w layout: [cin, cout, kh, kw]
  ConvGeom g =
      conv_geometry(x, w, stride, padding, padding, "conv_transpose2d");
  if (static_cast<std::size_t>(w.dim(0)) != g.cin)
    throw std::invalid_argument("conv_transpose2d: channel mismatch");
  g.cout = static_cast<std::size_t>(w.dim(1));
  g.kh = static_cast<std::size_t>(w.dim(2));
  g.kw = static_cast<std::size_t>(w.dim(3));
  const long oh = (static_cast<long>(g.h) - 1) * stride +
                  static_cast<long>(g.kh) - 2 * padding;
  const long ow = (static_cast<long>(g.w) - 1) * stride +
                  static_cast<long>(g.kw) - 2 * padding;
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("conv_transpose2d: empty output");
  g.oh = static_cast<std::size_t>(oh);
  g.ow = static_cast<std::size_t>(ow);
  if (b.defined() && (b.ndim() != 1 ||
                      static_cast<std::size_t>(b.dim(0)) != g.cout))
    throw std::invalid_argument("conv_transpose2d: bias shape mismatch");

  std::vector<float> y = arena_buffer(g.n * g.cout * g.oh * g.ow);
  if (b.defined())
    for (std::size_t ni = 0; ni < g.n; ++ni)
      for (std::size_t c = 0; c < g.cout; ++c)
        std::fill_n(y.data() + (ni * g.cout + c) * g.oh * g.ow, g.oh * g.ow,
                    b.data()[c]);

  // Scatter: each input pixel adds its kernel-weighted footprint.  Output
  // planes are disjoint per (sample, out-channel), so one flat range over
  // those planes fans out at any batch size.  Each plane accumulates in
  // (ci, hy, hx, ki, kj) order, as the serial loop nest does.
  runtime::parallel_for(
      0, g.n * g.cout,
      runtime::grain_for_cost(g.cin * g.h * g.w * g.kh * g.kw),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t r = lo; r < hi; ++r)
          conv_transpose_plane(
              x.data().data() + (r / g.cout) * g.cin * g.h * g.w,
              w.data().data(), g, r % g.cout, y.data() + r * g.oh * g.ow);
      });
  auto out = make_node(Shape{static_cast<int>(g.n), static_cast<int>(g.cout),
                             static_cast<int>(g.oh), static_cast<int>(g.ow)},
                       std::move(y));
  plan::record_op(plan::OpKind::kConvTranspose2d, out, {&x, &w, &b},
                  {.i0 = stride, .i1 = padding, .i3 = b.defined() ? 1 : 0});
  if (needs_grad({&x, &w, &b})) {
    attach(out, {x, w, b},
           [self = out.get(), px = x.impl(), pw = w.impl(),
            pb = b.defined() ? b.impl() : nullptr, g]() {
             if (px->requires_grad) px->ensure_grad();
             if (pw->requires_grad) pw->ensure_grad();
             // Input channels fan out with the sample loop inside: task ci
             // owns gx planes (·, ci) and gw rows [ci, ·, ·, ·], and each
             // gw element accumulates in (ni, hy, hx) order as serially.
             if (px->requires_grad || pw->requires_grad) {
               float* gx = px->requires_grad ? px->grad.data() : nullptr;
               float* gw = pw->requires_grad ? pw->grad.data() : nullptr;
               runtime::parallel_for(
                   0, g.cin,
                   runtime::grain_for_cost(g.n * g.h * g.w * g.cout *
                                           g.taps()),
                   [&](std::size_t ci_lo, std::size_t ci_hi) {
                     for (std::size_t ci = ci_lo; ci < ci_hi; ++ci)
                       conv_transpose_channel_grad(
                           px->data.data(), pw->data.data(),
                           self->grad.data(), g, ci, gx, gw);
                   });
             }
             if (pb && pb->requires_grad) {
               pb->ensure_grad();
               bias_grad(self->grad.data(), g.n, g.cout, g.oh * g.ow,
                         pb->grad.data());
             }
           });
  }
  return Tensor(out);
}

Tensor maxpool2d(const Tensor& x, int kernel, int stride) {
  if (x.ndim() != 4) throw std::invalid_argument("maxpool2d: expects NCHW");
  if (kernel < 1 || stride < 1)
    throw std::invalid_argument("maxpool2d: bad kernel/stride");
  const std::size_t n = static_cast<std::size_t>(x.dim(0));
  const std::size_t c = static_cast<std::size_t>(x.dim(1));
  const std::size_t h = static_cast<std::size_t>(x.dim(2));
  const std::size_t w = static_cast<std::size_t>(x.dim(3));
  if (h < static_cast<std::size_t>(kernel) ||
      w < static_cast<std::size_t>(kernel))
    throw std::invalid_argument("maxpool2d: input smaller than kernel");
  const std::size_t oh = (h - static_cast<std::size_t>(kernel)) /
                             static_cast<std::size_t>(stride) + 1;
  const std::size_t ow = (w - static_cast<std::size_t>(kernel)) /
                             static_cast<std::size_t>(stride) + 1;
  std::vector<float> y = arena_buffer(n * c * oh * ow);
  IndexScratchBuffer argmax(y.size());
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* in = x.data().data() + nc * h * w;
    float* o = y.data() + nc * oh * ow;
    std::size_t* am = argmax.data() + nc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t bi = 0;
        for (int ki = 0; ki < kernel; ++ki)
          for (int kj = 0; kj < kernel; ++kj) {
            const std::size_t iy = oy * static_cast<std::size_t>(stride) +
                                   static_cast<std::size_t>(ki);
            const std::size_t ix = ox * static_cast<std::size_t>(stride) +
                                   static_cast<std::size_t>(kj);
            const float v = in[iy * w + ix];
            if (v > best) {
              best = v;
              bi = iy * w + ix;
            }
          }
        o[oy * ow + ox] = best;
        am[oy * ow + ox] = bi;
      }
  }
  auto out = make_node(Shape{static_cast<int>(n), static_cast<int>(c),
                             static_cast<int>(oh), static_cast<int>(ow)},
                       std::move(y));
  plan::record_op(plan::OpKind::kMaxPool2d, out, {&x},
                  {.i0 = kernel, .i1 = stride});
  if (needs_grad({&x})) {
    attach(out, {x},
           [self = out.get(), px = x.impl(), argmax = argmax.take(), n, c,
            h, w, oh, ow]() {
             if (!px->requires_grad) return;
             px->ensure_grad();
             for (std::size_t nc = 0; nc < n * c; ++nc) {
               const float* gy = self->grad.data() + nc * oh * ow;
               const std::size_t* am = argmax.data() + nc * oh * ow;
               float* gx = px->grad.data() + nc * h * w;
               for (std::size_t i = 0; i < oh * ow; ++i) gx[am[i]] += gy[i];
             }
           });
  }
  return Tensor(out);
}

Tensor upsample_nearest2x(const Tensor& x) {
  if (x.ndim() != 4)
    throw std::invalid_argument("upsample_nearest2x: expects NCHW");
  const std::size_t n = static_cast<std::size_t>(x.dim(0));
  const std::size_t c = static_cast<std::size_t>(x.dim(1));
  const std::size_t h = static_cast<std::size_t>(x.dim(2));
  const std::size_t w = static_cast<std::size_t>(x.dim(3));
  const std::size_t oh = h * 2, ow = w * 2;
  std::vector<float> y = arena_buffer(n * c * oh * ow);
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* in = x.data().data() + nc * h * w;
    float* o = y.data() + nc * oh * ow;
    for (std::size_t iy = 0; iy < oh; ++iy)
      for (std::size_t ix = 0; ix < ow; ++ix)
        o[iy * ow + ix] = in[(iy / 2) * w + (ix / 2)];
  }
  auto out = make_node(Shape{static_cast<int>(n), static_cast<int>(c),
                             static_cast<int>(oh), static_cast<int>(ow)},
                       std::move(y));
  plan::record_op(plan::OpKind::kUpsampleNearest2x, out, {&x});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl(), n, c, h, w, oh, ow]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      for (std::size_t nc = 0; nc < n * c; ++nc) {
        const float* gy = self->grad.data() + nc * oh * ow;
        float* gx = px->grad.data() + nc * h * w;
        for (std::size_t iy = 0; iy < oh; ++iy)
          for (std::size_t ix = 0; ix < ow; ++ix)
            gx[(iy / 2) * w + (ix / 2)] += gy[iy * ow + ix];
      }
    });
  }
  return Tensor(out);
}

}  // namespace lmmir::tensor
