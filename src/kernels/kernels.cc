#include "kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/cpu_features.h"
#include "kernels/gemm_packed.h"
#include "kernels/micro_kernel.h"

namespace relserve {
namespace kernels {

namespace {

// The ISA backend for the elementwise strips, re-resolved per call so
// bench/test overrides of the active level take effect immediately
// (the per-level tables themselves are immutable statics).
const internal::KernelBackend* Backend() {
  return internal::GetKernelBackend(ActiveSimdLevel());
}

}  // namespace

int64_t Weight::ByteSize() const {
  if (const Int8Weight* q = int8()) return q->ByteSize();
  if (const CsrWeight* s = csr()) return s->ByteSize();
  return panel()->ByteSize();
}

Result<Weight> PackWeightTransB(const Tensor& w, MemoryTracker* tracker) {
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor panel, internal::PackPanel(w, ActivePanelNr(), tracker));
  return Weight(w.shape().dim(0), w.shape().dim(1), std::move(panel));
}

int64_t ActivePanelNr() {
  return internal::GetAvx512Backend() != nullptr ? internal::kWideNr
                                                 : internal::kNr;
}

Status GemmInto(const Tensor& a, const Tensor& b, bool transpose_b,
                bool accumulate, Tensor* out, ThreadPool* pool) {
  if (a.shape().ndim() != 2 || b.shape().ndim() != 2 ||
      out->shape().ndim() != 2) {
    return Status::InvalidArgument("GemmInto expects matrices");
  }
  const int64_t m = a.shape().dim(0);
  const int64_t k = a.shape().dim(1);
  const int64_t b_k = transpose_b ? b.shape().dim(1) : b.shape().dim(0);
  const int64_t n = transpose_b ? b.shape().dim(0) : b.shape().dim(1);
  if (b_k != k) {
    return Status::InvalidArgument(
        "GemmInto inner dimension mismatch: a " + a.shape().ToString() +
        ", b " + b.shape().ToString() +
        (transpose_b ? " (transposed)" : ""));
  }
  if (out->shape().dim(0) != m || out->shape().dim(1) != n) {
    return Status::InvalidArgument("GemmInto output shape " +
                                   out->shape().ToString() + " wants [" +
                                   std::to_string(m) + ", " +
                                   std::to_string(n) + "]");
  }
  // b's leading dimension in storage: [k, n] row-major or [n, k] when
  // the caller hands the transposed (weight) layout.
  const int64_t ldb = transpose_b ? k : n;
  return internal::GemmPacked(m, n, k, a.data(), k, /*trans_a=*/false,
                              b.data(), ldb, transpose_b, out->data(), n,
                              accumulate, pool);
}

Result<Tensor> MatMul(const Tensor& a, const Tensor& b, bool transpose_b,
                      MemoryTracker* tracker, ThreadPool* pool) {
  if (a.shape().ndim() != 2 || b.shape().ndim() != 2) {
    return Status::InvalidArgument("MatMul expects matrices");
  }
  const int64_t m = a.shape().dim(0);
  const int64_t n = transpose_b ? b.shape().dim(0) : b.shape().dim(1);
  RELSERVE_ASSIGN_OR_RETURN(Tensor out,
                            Tensor::Create(Shape{m, n}, tracker));
  RELSERVE_RETURN_NOT_OK(
      GemmInto(a, b, transpose_b, /*accumulate=*/false, &out, pool));
  return out;
}

Result<Tensor> MatMul(const Tensor& a, const Weight& w,
                      MemoryTracker* tracker, ThreadPool* pool) {
  if (a.shape().ndim() != 2 || a.shape().dim(1) != w.k) {
    return Status::InvalidArgument("MatMul input " + a.shape().ToString() +
                                   " does not match a weight of width " +
                                   std::to_string(w.k));
  }
  const int64_t m = a.shape().dim(0);
  RELSERVE_ASSIGN_OR_RETURN(Tensor out,
                            Tensor::Create(Shape{m, w.n}, tracker));
  if (const Int8Weight* q = w.int8()) {
    RELSERVE_RETURN_NOT_OK(Int8GemmTransBInto(a, *q, &out, pool));
  } else if (const CsrWeight* s = w.csr()) {
    RELSERVE_RETURN_NOT_OK(SparseGemmTransBInto(a, *s, &out, pool));
  } else {
    RELSERVE_RETURN_NOT_OK(internal::GemmPacked(
        m, w.n, w.k, a.data(), w.k, /*trans_a=*/false, /*b=*/nullptr,
        w.k, /*trans_b=*/true, out.data(), w.n, /*accumulate=*/false,
        pool, w.panel()->data()));
  }
  return out;
}

Status GemmTransAInto(const Tensor& a, const Tensor& b, bool accumulate,
                      Tensor* out, ThreadPool* pool) {
  if (a.shape().ndim() != 2 || b.shape().ndim() != 2 ||
      out->shape().ndim() != 2) {
    return Status::InvalidArgument("GemmTransAInto expects matrices");
  }
  const int64_t n = a.shape().dim(0);
  const int64_t m = a.shape().dim(1);
  const int64_t k = b.shape().dim(1);
  if (b.shape().dim(0) != n || out->shape().dim(0) != m ||
      out->shape().dim(1) != k) {
    return Status::InvalidArgument("GemmTransAInto shape mismatch");
  }
  // out[m, k] = a^T * b with a stored [n, m]: trans_a packing reads
  // logical A[i, s] from a[s * m + i].
  return internal::GemmPacked(m, k, n, a.data(), m, /*trans_a=*/true,
                              b.data(), k, /*trans_b=*/false,
                              out->data(), k, accumulate, pool);
}

Status ColumnSumInto(const Tensor& x, Tensor* out) {
  if (x.shape().ndim() != 2 || out->shape().ndim() != 1 ||
      out->shape().dim(0) != x.shape().dim(1)) {
    return Status::InvalidArgument("ColumnSumInto shape mismatch");
  }
  const int64_t rows = x.shape().dim(0);
  const int64_t cols = x.shape().dim(1);
  std::memset(out->data(), 0, out->ByteSize());
  float* dst = out->data();
  const float* src = x.data();
  const internal::KernelBackend* be = Backend();
  for (int64_t r = 0; r < rows; ++r) {
    be->add(dst, src + r * cols, cols);
  }
  return Status::OK();
}

void ReluInPlace(Tensor* x) {
  Backend()->relu(x->data(), x->NumElements());
}

Status BiasAddInPlace(Tensor* x, const Tensor& bias) {
  if (bias.shape().ndim() != 1) {
    return Status::InvalidArgument("bias must be rank-1");
  }
  const int ndim = x->shape().ndim();
  if (ndim < 1) return Status::InvalidArgument("x must have rank >= 1");
  const int64_t width = x->shape().dim(ndim - 1);
  if (bias.shape().dim(0) != width) {
    return Status::InvalidArgument(
        "bias length " + std::to_string(bias.shape().dim(0)) +
        " vs last dim " + std::to_string(width));
  }
  BiasAddInPlace(x, bias.data());
  return Status::OK();
}

void BiasAddInPlace(Tensor* x, const float* bias) {
  const int64_t width = x->shape().dim(x->shape().ndim() - 1);
  float* data = x->data();
  const int64_t rows = x->NumElements() / width;
  const internal::KernelBackend* be = Backend();
  for (int64_t r = 0; r < rows; ++r) {
    be->add(data + r * width, bias, width);
  }
}

Status SoftmaxRowsInPlace(Tensor* x) {
  if (x->shape().ndim() != 2) {
    return Status::InvalidArgument("softmax expects a matrix");
  }
  const int64_t rows = x->shape().dim(0);
  const int64_t cols = x->shape().dim(1);
  float* data = x->data();
  const internal::KernelBackend* be = Backend();
  // Max and the final scale are vectorized; exp stays scalar (exact
  // libm, identical across backends) with the sum fused into its loop.
  for (int64_t r = 0; r < rows; ++r) {
    float* row = data + r * cols;
    const float max_v = be->row_max(row, cols);
    float sum = 0.0f;
    for (int64_t c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - max_v);
      sum += row[c];
    }
    be->scale(row, 1.0f / sum, cols);
  }
  return Status::OK();
}

Status AddInPlace(Tensor* a, const Tensor& b) {
  if (a->shape() != b.shape()) {
    return Status::InvalidArgument("AddInPlace shape mismatch: " +
                                   a->shape().ToString() + " vs " +
                                   b.shape().ToString());
  }
  Backend()->add(a->data(), b.data(), a->NumElements());
  return Status::OK();
}

std::vector<int64_t> ArgMaxRows(const Tensor& x) {
  RELSERVE_CHECK(x.shape().ndim() == 2);
  const int64_t rows = x.shape().dim(0);
  const int64_t cols = x.shape().dim(1);
  std::vector<int64_t> out(rows);
  const float* data = x.data();
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = data + r * cols;
    int64_t best = 0;
    for (int64_t c = 1; c < cols; ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = best;
  }
  return out;
}

Result<Tensor> Im2Col(const Tensor& image, int64_t kernel_h,
                      int64_t kernel_w, int64_t stride,
                      MemoryTracker* tracker) {
  if (image.shape().ndim() != 3) {
    return Status::InvalidArgument("Im2Col expects [h, w, c], got " +
                                   image.shape().ToString());
  }
  if (stride <= 0) return Status::InvalidArgument("stride must be > 0");
  const int64_t h = image.shape().dim(0);
  const int64_t w = image.shape().dim(1);
  const int64_t c = image.shape().dim(2);
  if (kernel_h > h || kernel_w > w) {
    return Status::InvalidArgument("kernel larger than image");
  }
  const int64_t out_h = (h - kernel_h) / stride + 1;
  const int64_t out_w = (w - kernel_w) / stride + 1;
  const int64_t patch = kernel_h * kernel_w * c;
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor out, Tensor::Create(Shape{out_h * out_w, patch}, tracker));
  const float* src = image.data();
  float* dst = out.data();
  for (int64_t oy = 0; oy < out_h; ++oy) {
    for (int64_t ox = 0; ox < out_w; ++ox) {
      float* patch_dst = dst + (oy * out_w + ox) * patch;
      for (int64_t ky = 0; ky < kernel_h; ++ky) {
        const float* row =
            src + ((oy * stride + ky) * w + ox * stride) * c;
        std::memcpy(patch_dst + ky * kernel_w * c, row,
                    kernel_w * c * sizeof(float));
      }
    }
  }
  return out;
}

Status Im2ColRowsInto(const Tensor& image, int64_t kernel_h,
                      int64_t kernel_w, int64_t stride, int64_t row_lo,
                      int64_t row_hi, Tensor* out) {
  if (image.shape().ndim() != 3) {
    return Status::InvalidArgument("Im2ColRowsInto expects [h, w, c]");
  }
  const int64_t h = image.shape().dim(0);
  const int64_t w = image.shape().dim(1);
  const int64_t c = image.shape().dim(2);
  const int64_t out_w = (w - kernel_w) / stride + 1;
  const int64_t out_h = (h - kernel_h) / stride + 1;
  const int64_t patch = kernel_h * kernel_w * c;
  if (row_lo < 0 || row_hi > out_h * out_w || row_lo > row_hi) {
    return Status::InvalidArgument("im2col row range out of bounds");
  }
  if (out->shape().ndim() != 2 ||
      out->shape().dim(0) != row_hi - row_lo ||
      out->shape().dim(1) != patch) {
    return Status::InvalidArgument("im2col output shape mismatch");
  }
  const float* src = image.data();
  float* dst = out->data();
  for (int64_t row = row_lo; row < row_hi; ++row) {
    const int64_t oy = row / out_w;
    const int64_t ox = row % out_w;
    float* patch_dst = dst + (row - row_lo) * patch;
    for (int64_t ky = 0; ky < kernel_h; ++ky) {
      const float* line =
          src + ((oy * stride + ky) * w + ox * stride) * c;
      std::memcpy(patch_dst + ky * kernel_w * c, line,
                  kernel_w * c * sizeof(float));
    }
  }
  return Status::OK();
}

Result<Tensor> Conv2D(const Tensor& input, const Tensor& kernel,
                      int64_t stride, MemoryTracker* tracker,
                      ThreadPool* pool) {
  if (input.shape().ndim() != 4 || kernel.shape().ndim() != 4) {
    return Status::InvalidArgument(
        "Conv2D expects input [n,h,w,c] and kernel [oc,kh,kw,c]");
  }
  const int64_t n = input.shape().dim(0);
  const int64_t h = input.shape().dim(1);
  const int64_t w = input.shape().dim(2);
  const int64_t c = input.shape().dim(3);
  const int64_t out_c = kernel.shape().dim(0);
  const int64_t kh = kernel.shape().dim(1);
  const int64_t kw = kernel.shape().dim(2);
  if (kernel.shape().dim(3) != c) {
    return Status::InvalidArgument("Conv2D channel mismatch");
  }
  const int64_t out_h = (h - kh) / stride + 1;
  const int64_t out_w = (w - kw) / stride + 1;
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor out,
      Tensor::Create(Shape{n, out_h, out_w, out_c}, tracker));
  // Flattened kernel matrix [out_c, kh*kw*c]; GEMM with transpose_b.
  RELSERVE_ASSIGN_OR_RETURN(Tensor kernel_mat,
                            kernel.Reshape(Shape{out_c, kh * kw * c}));
  const int64_t image_elems = h * w * c;
  const int64_t out_image_elems = out_h * out_w * out_c;
  for (int64_t img = 0; img < n; ++img) {
    // View of one image: shares the input buffer via Reshape of a
    // clone-free slice. Tensor has no slicing, so copy the image view
    // through Im2Col directly using a temporary wrapper.
    RELSERVE_ASSIGN_OR_RETURN(Tensor flat_in,
                              input.Reshape(Shape{n, image_elems}));
    // Build a single-image tensor without copying by reshaping is not
    // possible for img > 0, so copy the image row (charged to tracker).
    RELSERVE_ASSIGN_OR_RETURN(Tensor image,
                              Tensor::Create(Shape{h, w, c}, tracker));
    std::memcpy(image.data(), flat_in.data() + img * image_elems,
                image_elems * sizeof(float));
    RELSERVE_ASSIGN_OR_RETURN(Tensor cols,
                              Im2Col(image, kh, kw, stride, tracker));
    RELSERVE_ASSIGN_OR_RETURN(
        Tensor prod,
        MatMul(cols, kernel_mat, /*transpose_b=*/true, tracker, pool));
    std::memcpy(out.data() + img * out_image_elems, prod.data(),
                out_image_elems * sizeof(float));
  }
  return out;
}

Result<Tensor> MaxPool2x2(const Tensor& input, MemoryTracker* tracker) {
  if (input.shape().ndim() != 4) {
    return Status::InvalidArgument("MaxPool2x2 expects [n,h,w,c]");
  }
  const int64_t n = input.shape().dim(0);
  const int64_t h = input.shape().dim(1);
  const int64_t w = input.shape().dim(2);
  const int64_t c = input.shape().dim(3);
  const int64_t out_h = h / 2;
  const int64_t out_w = w / 2;
  RELSERVE_ASSIGN_OR_RETURN(
      Tensor out, Tensor::Create(Shape{n, out_h, out_w, c}, tracker));
  const float* src = input.data();
  float* dst = out.data();
  for (int64_t img = 0; img < n; ++img) {
    const float* im = src + img * h * w * c;
    float* om = dst + img * out_h * out_w * c;
    for (int64_t oy = 0; oy < out_h; ++oy) {
      for (int64_t ox = 0; ox < out_w; ++ox) {
        for (int64_t ch = 0; ch < c; ++ch) {
          const int64_t y = oy * 2, x = ox * 2;
          float v = im[(y * w + x) * c + ch];
          v = std::max(v, im[(y * w + x + 1) * c + ch]);
          v = std::max(v, im[((y + 1) * w + x) * c + ch]);
          v = std::max(v, im[((y + 1) * w + x + 1) * c + ch]);
          om[(oy * out_w + ox) * c + ch] = v;
        }
      }
    }
  }
  return out;
}

}  // namespace kernels
}  // namespace relserve
