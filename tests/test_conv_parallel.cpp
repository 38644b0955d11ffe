// Parallel conv kernels: conv2d / conv_transpose2d forward and backward
// (y, dX, dW, db) with a 1-thread and a 4-thread pool are bitwise equal to
// the serial loop nests they replaced (kept below as references), over
// batch sizes 1-5, kernels 1/3/7, strided and rectangular geometries and
// the LMM-IR training shapes.  Every case also checks that the 4-thread
// forward, the backward, and the dX and dW kernels each alone really
// fanned out (the pool ran tasks), since grain_for_cost keeps small shapes
// serial; the bias gradient is checked alone on training shapes.  The
// accumulator-row GEMM the dW path uses is checked against the
// dot-product form it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/op_helpers.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir;
using tensor::Shape;
using tensor::Tensor;

// ------------------------------------------------- accumulator-row GEMM

/// The dot-product C[M,K] += A[M,N] * B[K,N]ᵀ that conv2d's dW used before
/// the accumulator-row form: the bitwise reference.
void dot_product_a_bt_acc(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * n;
      float acc = 0.0f;
      for (std::size_t j = 0; j < n; ++j) acc += arow[j] * brow[j];
      crow[kk] += acc;
    }
  }
}

std::vector<float> random_vector(std::size_t size, util::Rng& rng,
                                 float zero_share = 0.0f) {
  std::vector<float> v(size);
  for (float& x : v)
    x = rng.uniform() < zero_share ? 0.0f : rng.uniform(-1.0f, 1.0f);
  return v;
}

TEST(OpsGemmABt, PretransposedMatchesDotProductBitwise) {
  util::Rng rng(11);
  // k spans the 256-wide accumulator tile (tails on both sides of it).
  const std::size_t shapes[][3] = {{1, 1, 1},      {3, 7, 5},
                                   {12, 2304, 108}, {6, 2304, 12},
                                   {4, 33, 257},    {2, 19, 600},
                                   {5, 0, 9}};
  for (const auto& s : shapes) {
    const std::size_t m = s[0], n = s[1], k = s[2];
    const std::vector<float> a = random_vector(m * n, rng, 0.2f);
    const std::vector<float> b = random_vector(k * n, rng);
    std::vector<float> bt(n * k);
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j) bt[j * k + kk] = b[kk * n + j];
    const std::vector<float> c0 = random_vector(m * k, rng);

    std::vector<float> expect = c0;
    dot_product_a_bt_acc(a.data(), b.data(), expect.data(), m, n, k);
    std::vector<float> whole = c0;
    tensor::ophelp::gemm_a_bt_acc_pretransposed(a.data(), bt.data(),
                                                whole.data(), m, n, k, 0, k);
    EXPECT_EQ(whole, expect) << m << "x" << n << "x" << k;
    // Column slices, as the parallel dW hands them out, cover the same
    // elements with the same arithmetic.
    std::vector<float> sliced = c0;
    for (std::size_t lo = 0; lo < k; lo += 7)
      tensor::ophelp::gemm_a_bt_acc_pretransposed(
          a.data(), bt.data(), sliced.data(), m, n, k, lo,
          std::min(k, lo + 7));
    EXPECT_EQ(sliced, expect) << m << "x" << n << "x" << k << " sliced";
  }
}

// ----------------------------------------------------- conv fixtures

struct ConvCase {
  const char* name;
  int n, cin, h, w, cout, kh, kw, stride, pad_h, pad_w;
};

struct ConvResult {
  std::vector<float> y, dx, dw, db;
};

int out_extent(const ConvCase& c, bool transpose, int in, int k, int pad) {
  return transpose ? (in - 1) * c.stride + k - 2 * pad
                   : (in + 2 * pad - k) / c.stride + 1;
}

/// Deterministic operands of one case: x and w carry some exact zeros
/// (the kernels' zero-skip paths), and dY weights every output
/// differently.
struct ConvInputs {
  ConvInputs(const ConvCase& c, bool transpose) {
    util::Rng rng(static_cast<std::uint64_t>(c.n * 1000 + c.cin * 10 + c.kh));
    const auto size = [](std::initializer_list<int> dims) {
      std::size_t v = 1;
      for (int d : dims) v *= static_cast<std::size_t>(d);
      return v;
    };
    oh = out_extent(c, transpose, c.h, c.kh, c.pad_h);
    ow = out_extent(c, transpose, c.w, c.kw, c.pad_w);
    x = random_vector(size({c.n, c.cin, c.h, c.w}), rng, 0.1f);
    w = random_vector(size({c.cout, c.cin, c.kh, c.kw}), rng, 0.1f);
    b = random_vector(size({c.cout}), rng);
    dy = random_vector(size({c.n, c.cout, oh, ow}), rng);
  }
  int oh, ow;
  std::vector<float> x, w, b, dy;
};

std::uint64_t pool_tasks() {
  return obs::counter("lmmir_pool_tasks_total").value();
}

/// Runs `phase` on a fresh pool of `threads` threads and returns how many
/// tasks that pool ran.  The last pool task bumps the counter just after
/// releasing its latch; shrinking the pool back to one thread joins every
/// worker, so the count is final.  Metrics must be enabled.
template <typename Phase>
std::uint64_t pool_tasks_during(std::size_t threads, Phase&& phase) {
  runtime::set_global_threads(threads);
  const std::uint64_t before = pool_tasks();
  phase();
  runtime::set_global_threads(1);
  return pool_tasks() - before;
}

/// Which operands require grad, so each gradient kernel can run alone.
struct Grads {
  bool x = true, w = true, b = true;
};

struct ConvRun {
  ConvResult r;  // gradients of operands that require none stay empty
  std::uint64_t forward_tasks = 0, backward_tasks = 0;
};

/// One forward + backward through the op under test on a `threads`-thread
/// pool, with upstream gradient dY (sum(y .* dY) has exactly dY as y's
/// gradient), counting the pool tasks of each direction separately.
ConvRun run_conv(const ConvCase& c, bool transpose, const ConvInputs& in,
                 std::size_t threads, Grads grads = {}) {
  const Shape ws = transpose ? Shape{c.cin, c.cout, c.kh, c.kw}
                             : Shape{c.cout, c.cin, c.kh, c.kw};
  Tensor x = Tensor::from_data({c.n, c.cin, c.h, c.w}, in.x, grads.x);
  Tensor w = Tensor::from_data(ws, in.w, grads.w);
  Tensor b = Tensor::from_data({c.cout}, in.b, grads.b);
  ConvRun run;
  Tensor y;
  run.forward_tasks = pool_tasks_during(threads, [&] {
    y = transpose ? tensor::conv_transpose2d(x, w, b, c.stride, c.pad_h)
                  : tensor::conv2d(x, w, b, c.stride, c.pad_h, c.pad_w);
  });
  Tensor loss =
      tensor::sum_all(tensor::mul(y, Tensor::from_data(y.shape(), in.dy)));
  run.backward_tasks = pool_tasks_during(threads, [&] { loss.backward(); });
  run.r = {y.data(), x.grad(), w.grad(), b.grad()};
  return run;
}

/// The serial conv2d these kernels replaced, loop nest for loop nest:
/// im2col + zero-skipping ikj gemm + bias; per sample, a dot-product dW,
/// dcol = Wᵀ·dY then col2im, and one bias sum per channel.
ConvResult conv2d_serial_reference(const ConvCase& c, const ConvInputs& in) {
  const std::size_t n = static_cast<std::size_t>(c.n);
  const std::size_t cin = static_cast<std::size_t>(c.cin);
  const std::size_t cout = static_cast<std::size_t>(c.cout);
  const std::size_t h = static_cast<std::size_t>(c.h);
  const std::size_t w = static_cast<std::size_t>(c.w);
  const std::size_t kh = static_cast<std::size_t>(c.kh);
  const std::size_t kw = static_cast<std::size_t>(c.kw);
  const std::size_t oh = static_cast<std::size_t>(in.oh);
  const std::size_t ow = static_cast<std::size_t>(in.ow);
  const std::size_t patch = cin * kh * kw, cols = oh * ow;
  // Input index behind col[prow, j], or -1 for zero padding.
  auto source = [&](std::size_t prow, std::size_t j) -> long {
    const std::size_t ci = prow / (kh * kw), ki = prow / kw % kh,
                      kj = prow % kw;
    const long iy = static_cast<long>(j / ow) * c.stride - c.pad_h +
                    static_cast<long>(ki);
    const long ix = static_cast<long>(j % ow) * c.stride - c.pad_w +
                    static_cast<long>(kj);
    if (iy < 0 || iy >= c.h || ix < 0 || ix >= c.w) return -1;
    return static_cast<long>((ci * h + static_cast<std::size_t>(iy)) * w +
                             static_cast<std::size_t>(ix));
  };
  ConvResult r{std::vector<float>(n * cout * cols, 0.0f),
               std::vector<float>(in.x.size(), 0.0f),
               std::vector<float>(in.w.size(), 0.0f),
               std::vector<float>(cout, 0.0f)};
  std::vector<float> col(patch * cols), dcol(patch * cols);
  for (std::size_t ni = 0; ni < n; ++ni) {
    const float* x = in.x.data() + ni * cin * h * w;
    for (std::size_t p = 0; p < patch; ++p)
      for (std::size_t j = 0; j < cols; ++j) {
        const long src = source(p, j);
        col[p * cols + j] = src < 0 ? 0.0f : x[src];
      }
    for (std::size_t co = 0; co < cout; ++co) {
      float* yrow = r.y.data() + (ni * cout + co) * cols;
      for (std::size_t p = 0; p < patch; ++p) {
        const float av = in.w[co * patch + p];
        if (av == 0.0f) continue;
        for (std::size_t j = 0; j < cols; ++j)
          yrow[j] += av * col[p * cols + j];
      }
      for (std::size_t j = 0; j < cols; ++j) yrow[j] += in.b[co];
    }
    const float* gy = in.dy.data() + ni * cout * cols;
    dot_product_a_bt_acc(gy, col.data(), r.dw.data(), cout, cols, patch);
    std::fill(dcol.begin(), dcol.end(), 0.0f);
    for (std::size_t co = 0; co < cout; ++co)
      for (std::size_t p = 0; p < patch; ++p) {
        const float av = in.w[co * patch + p];
        if (av == 0.0f) continue;
        for (std::size_t j = 0; j < cols; ++j)
          dcol[p * cols + j] += av * gy[co * cols + j];
      }
    float* gx = r.dx.data() + ni * cin * h * w;
    for (std::size_t p = 0; p < patch; ++p)
      for (std::size_t j = 0; j < cols; ++j)
        if (const long src = source(p, j); src >= 0)
          gx[src] += dcol[p * cols + j];
    for (std::size_t co = 0; co < cout; ++co) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < cols; ++j) acc += gy[co * cols + j];
      r.db[co] += acc;
    }
  }
  return r;
}

/// The serial conv_transpose2d these kernels replaced: a bias-filled
/// scatter in (ni, co, ci, hy, hx, ki, kj) order, and a backward in
/// (ni, ci, hy, hx, co, ki, kj) order with the bias sums after each sample.
ConvResult conv_transpose2d_serial_reference(const ConvCase& c,
                                             const ConvInputs& in) {
  const int n = c.n, cin = c.cin, cout = c.cout, h = c.h, w = c.w;
  const int k = c.kh, s = c.stride, p = c.pad_h, oh = in.oh, ow = in.ow;
  auto at = [](int a, int b, int c2, int d, int db, int dc, int dd) {
    return static_cast<std::size_t>(((a * db + b) * dc + c2) * dd + d);
  };
  ConvResult r{std::vector<float>(in.dy.size()),
               std::vector<float>(in.x.size(), 0.0f),
               std::vector<float>(in.w.size(), 0.0f),
               std::vector<float>(in.b.size(), 0.0f)};
  for (int ni = 0; ni < n; ++ni)
    for (int co = 0; co < cout; ++co) {
      for (int i = 0; i < oh * ow; ++i)
        r.y[at(ni, co, 0, i, cout, 1, oh * ow)] = in.b[co];
      for (int ci = 0; ci < cin; ++ci)
        for (int hy = 0; hy < h; ++hy)
          for (int hx = 0; hx < w; ++hx) {
            const float xv = in.x[at(ni, ci, hy, hx, cin, h, w)];
            if (xv == 0.0f) continue;
            for (int ki = 0; ki < k; ++ki)
              for (int kj = 0; kj < k; ++kj) {
                const int oy = hy * s + ki - p, ox = hx * s + kj - p;
                if (oy < 0 || oy >= oh || ox < 0 || ox >= ow) continue;
                r.y[at(ni, co, oy, ox, cout, oh, ow)] +=
                    xv * in.w[at(ci, co, ki, kj, cout, k, k)];
              }
          }
    }
  for (int ni = 0; ni < n; ++ni) {
    for (int ci = 0; ci < cin; ++ci)
      for (int hy = 0; hy < h; ++hy)
        for (int hx = 0; hx < w; ++hx) {
          float gx_acc = 0.0f;
          for (int co = 0; co < cout; ++co)
            for (int ki = 0; ki < k; ++ki)
              for (int kj = 0; kj < k; ++kj) {
                const int oy = hy * s + ki - p, ox = hx * s + kj - p;
                if (oy < 0 || oy >= oh || ox < 0 || ox >= ow) continue;
                const float gyv = in.dy[at(ni, co, oy, ox, cout, oh, ow)];
                gx_acc += gyv * in.w[at(ci, co, ki, kj, cout, k, k)];
                r.dw[at(ci, co, ki, kj, cout, k, k)] +=
                    gyv * in.x[at(ni, ci, hy, hx, cin, h, w)];
              }
          r.dx[at(ni, ci, hy, hx, cin, h, w)] += gx_acc;
        }
    for (int co = 0; co < cout; ++co) {
      float acc = 0.0f;
      for (int i = 0; i < oh * ow; ++i)
        acc += in.dy[at(ni, co, 0, i, cout, 1, oh * ow)];
      r.db[co] += acc;
    }
  }
  return r;
}

void expect_same(const ConvResult& got, const ConvResult& want,
                 const char* what) {
  EXPECT_EQ(got.y, want.y) << what << ": forward";
  EXPECT_EQ(got.dx, want.dx) << what << ": dX";
  EXPECT_EQ(got.dw, want.dw) << what << ": dW";
  EXPECT_EQ(got.db, want.db) << what << ": db";
}

/// Restores the pool size and the metrics switch on scope exit, and turns
/// metrics on so pool tasks are counted.
class TaskCountingScope {
 public:
  TaskCountingScope()
      : threads_(runtime::global_threads()), metrics_(obs::metrics_enabled()) {
    obs::set_metrics_enabled(true);
  }
  ~TaskCountingScope() {
    obs::set_metrics_enabled(metrics_);
    runtime::set_global_threads(threads_);
  }

 private:
  std::size_t threads_;
  bool metrics_;
};

/// The op at pool size 1 and 4 against the serial reference, bitwise.  In
/// the 4-thread run the forward and the backward must each have handed
/// tasks to the pool, and so must the dX and the dW kernel when each runs
/// alone (only that operand requires grad).
void expect_bitwise_at_1_and_4_threads(const ConvCase& c, bool transpose) {
  const ConvInputs in(c, transpose);
  const ConvResult want = transpose ? conv_transpose2d_serial_reference(c, in)
                                    : conv2d_serial_reference(c, in);
  const TaskCountingScope counting;
  const ConvRun serial = run_conv(c, transpose, in, 1);
  const ConvRun threaded = run_conv(c, transpose, in, 4);
  EXPECT_GT(threaded.forward_tasks, 0u) << "the forward never fanned out";
  EXPECT_GT(threaded.backward_tasks, 0u) << "the backward never fanned out";
  expect_same(serial.r, want, "1 thread");
  expect_same(threaded.r, want, "4 threads");

  const ConvRun dx_only =
      run_conv(c, transpose, in, 4, {.w = false, .b = false});
  EXPECT_GT(dx_only.backward_tasks, 0u) << "dX never fanned out";
  EXPECT_EQ(dx_only.r.dx, want.dx) << "dX alone";
  const ConvRun dw_only =
      run_conv(c, transpose, in, 4, {.x = false, .b = false});
  EXPECT_GT(dw_only.backward_tasks, 0u) << "dW never fanned out";
  EXPECT_EQ(dw_only.r.dw, want.dw) << "dW alone";
}

std::string case_name(const testing::TestParamInfo<ConvCase>& info) {
  return info.param.name;
}

// gtest (and so ctest's discovered test names) prints the parameter; by
// default that is a byte dump including the name's address, which would
// change from build to build.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

// ------------------------------------------------------------- conv2d

class Conv2dParallel : public testing::TestWithParam<ConvCase> {};

TEST_P(Conv2dParallel, MatchesSerialReferenceAt1And4Threads) {
  expect_bitwise_at_1_and_4_threads(GetParam(), /*transpose=*/false);
}

INSTANTIATE_TEST_SUITE_P(
    Conv2d, Conv2dParallel,
    testing::Values(
        // batch 1-3 x kernel 1/3/7 ("same" padding); the 1x1 cases take 16
        // input channels, as a dW task spans at least 8 weight columns
        ConvCase{"n1_k1", 1, 16, 32, 32, 16, 1, 1, 1, 0, 0},
        ConvCase{"n1_k3", 1, 6, 20, 20, 8, 3, 3, 1, 1, 1},
        ConvCase{"n1_k7", 1, 4, 20, 20, 6, 7, 7, 1, 3, 3},
        ConvCase{"n2_k1", 2, 16, 20, 20, 8, 1, 1, 1, 0, 0},
        ConvCase{"n2_k3", 2, 6, 20, 20, 8, 3, 3, 1, 1, 1},
        ConvCase{"n2_k7", 2, 4, 20, 20, 6, 7, 7, 1, 3, 3},
        ConvCase{"n3_k1", 3, 16, 20, 20, 8, 1, 1, 1, 0, 0},
        ConvCase{"n3_k3", 3, 6, 20, 20, 8, 3, 3, 1, 1, 1},
        ConvCase{"n3_k7", 3, 4, 20, 20, 6, 7, 7, 1, 3, 3},
        // as many samples as threads (the forward fans out over samples),
        // and more (the weight gradient takes two sample groups)
        ConvCase{"n4_k3", 4, 6, 20, 20, 8, 3, 3, 1, 1, 1},
        ConvCase{"n5_k3", 5, 6, 20, 20, 8, 3, 3, 1, 1, 1},
        // rectangular kernel and padding, strided, non-square input
        ConvCase{"rect_pad_stride2", 2, 5, 23, 17, 7, 3, 5, 2, 1, 2},
        ConvCase{"rect_pad_only_h", 3, 4, 16, 21, 5, 5, 3, 1, 2, 0},
        // LMM-IR training shapes (batch 2, 48x48 input side)
        ConvCase{"train_stem_7x7", 2, 6, 48, 48, 12, 7, 7, 1, 3, 3},
        ConvCase{"train_c12_48", 2, 12, 48, 48, 12, 3, 3, 1, 1, 1},
        ConvCase{"train_c24_48", 2, 24, 48, 48, 12, 3, 3, 1, 1, 1},
        ConvCase{"train_c48_24", 2, 48, 24, 24, 24, 3, 3, 1, 1, 1},
        ConvCase{"train_c96_12", 2, 96, 12, 12, 48, 3, 3, 1, 1, 1},
        ConvCase{"train_c48_6", 2, 48, 6, 6, 96, 3, 3, 1, 1, 1},
        ConvCase{"train_1x1_c12", 2, 12, 48, 48, 6, 1, 1, 1, 0, 0},
        // one output channel: dW can only split its columns
        ConvCase{"out1_c64", 2, 64, 48, 48, 1, 1, 1, 1, 0, 0}),
    case_name);

// --------------------------------------------------------- bias grads

// db alone (only b requires grad) fans out over channels.  grain_for_cost
// keeps it serial below ~32k adds per channel, so these use training
// shapes with 48x48 output planes.
void expect_bias_grad_fans_out(const ConvCase& c, bool transpose) {
  const ConvInputs in(c, transpose);
  const ConvResult want = transpose ? conv_transpose2d_serial_reference(c, in)
                                    : conv2d_serial_reference(c, in);
  const TaskCountingScope counting;
  const ConvRun db_only =
      run_conv(c, transpose, in, 4, {.x = false, .w = false});
  EXPECT_GT(db_only.backward_tasks, 0u) << "db never fanned out";
  EXPECT_EQ(db_only.r.db, want.db);
}

TEST(Conv2dBiasGrad, FansOutOnATrainingShape) {
  expect_bias_grad_fans_out({"c12_48", 2, 12, 48, 48, 12, 3, 3, 1, 1, 1},
                            /*transpose=*/false);
}

TEST(ConvTranspose2dBiasGrad, FansOutOnATrainingShape) {
  expect_bias_grad_fans_out({"c24_24", 2, 24, 24, 24, 12, 2, 2, 2, 0, 0},
                            /*transpose=*/true);
}

// ---------------------------------------------------- conv_transpose2d

class ConvTranspose2dParallel : public testing::TestWithParam<ConvCase> {};

TEST_P(ConvTranspose2dParallel, MatchesSerialReferenceAt1And4Threads) {
  expect_bitwise_at_1_and_4_threads(GetParam(), /*transpose=*/true);
}

// conv_transpose2d takes one stride and one (square) padding: pad_w and
// kw mirror pad_h and kh here.
INSTANTIATE_TEST_SUITE_P(
    ConvTranspose2d, ConvTranspose2dParallel,
    testing::Values(
        ConvCase{"n1_k1", 1, 16, 32, 32, 16, 1, 1, 1, 0, 0},
        ConvCase{"n1_k3", 1, 8, 14, 14, 6, 3, 3, 1, 1, 1},
        ConvCase{"n2_k3_stride2", 2, 8, 12, 12, 6, 3, 3, 2, 1, 1},
        ConvCase{"n3_k7", 3, 4, 10, 10, 4, 7, 7, 1, 3, 3},
        ConvCase{"n3_k2_stride2", 3, 12, 12, 12, 6, 2, 2, 2, 0, 0},
        // LMM-IR decoder up-sampling (batch 2, stride 2)
        ConvCase{"train_c96_6", 2, 96, 6, 6, 48, 2, 2, 2, 0, 0},
        ConvCase{"train_c48_12", 2, 48, 12, 12, 24, 2, 2, 2, 0, 0},
        ConvCase{"train_c24_24", 2, 24, 24, 24, 12, 2, 2, 2, 0, 0}),
    case_name);

}  // namespace
