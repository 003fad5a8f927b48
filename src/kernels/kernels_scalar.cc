// Portable scalar kernel build. Mirrors the AVX2 build operation-for-
// operation: reductions keep 16 striped accumulators combined in the exact
// tree order the vector horizontal add produces, elementwise kernels
// evaluate the same per-element expression. Compiled with
// -ffp-contract=off so the compiler cannot fuse a multiply-add here that
// the explicit mul/add intrinsics on the AVX2 side would keep separate —
// that is what makes the two builds bit-exact (kernels.h contract).
// Crc32c is the byte-wise 256-entry table loop.
#include "kernels/kernel_table.h"

#include <array>

namespace numdist::kernels {

namespace {

// Combines 16 striped accumulators exactly like the AVX2 epilogue: the two
// vector adds pairing chains 4 apart, the 128-bit fold pairing lanes 2
// apart, then the final lane pair.
inline double CombineBlocked(const double s[16]) {
  double u[4];
  for (size_t j = 0; j < 4; ++j) {
    u[j] = (s[j] + s[j + 4]) + (s[j + 8] + s[j + 12]);
  }
  return (u[0] + u[2]) + (u[1] + u[3]);
}

double DotScalar(const double* a, const double* b, size_t n) {
  double s[16] = {0};
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    for (size_t l = 0; l < 16; ++l) s[l] += a[i + l] * b[i + l];
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) tail += a[i] * b[i];
  return CombineBlocked(s) + tail;
}

void Dot2Scalar(const double* a0, const double* a1, const double* b, size_t n,
                double* o0, double* o1) {
  double s0[8] = {0};
  double s1[8] = {0};
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      s0[l] += a0[i + l] * b[i + l];
      s1[l] += a1[i + l] * b[i + l];
    }
  }
  double t0 = 0.0;
  double t1 = 0.0;
  for (size_t i = n8; i < n; ++i) {
    t0 += a0[i] * b[i];
    t1 += a1[i] * b[i];
  }
  // Per-row 8-stripe combine mirroring the AVX2 epilogue: chains paired 4
  // apart, 128-bit fold 2 apart, final lane pair.
  double u0[4];
  double u1[4];
  for (size_t j = 0; j < 4; ++j) {
    u0[j] = s0[j] + s0[j + 4];
    u1[j] = s1[j] + s1[j + 4];
  }
  *o0 = (u0[0] + u0[2]) + (u0[1] + u0[3]) + t0;
  *o1 = (u1[0] + u1[2]) + (u1[1] + u1[3]) + t1;
}

double SumScalar(const double* x, size_t n) {
  double s[16] = {0};
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    for (size_t l = 0; l < 16; ++l) s[l] += x[i + l];
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) tail += x[i];
  return CombineBlocked(s) + tail;
}

void AxpyScalar(double* y, double a, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void Axpy2Scalar(double* y, double a0, const double* x0, double a1,
                 const double* x1, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    y[i] = (y[i] + a0 * x0[i]) + a1 * x1[i];
  }
}

double MulAndSumScalar(double* y, const double* x, size_t n) {
  double s[16] = {0};
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    for (size_t l = 0; l < 16; ++l) {
      y[i + l] *= x[i + l];
      s[l] += y[i + l];
    }
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) {
    y[i] *= x[i];
    tail += y[i];
  }
  return CombineBlocked(s) + tail;
}

void ScaleScalar(double* x, double a, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

void WindowCombineScalar(double* y, size_t n, size_t lag, double background,
                         double height) {
  for (size_t j = n; j-- > 0;) {
    const double lagged = j >= lag ? y[j - lag] : 0.0;
    y[j] = background + height * (y[j] - lagged);
  }
}

void LessThanScalar(const double* u, double threshold, uint8_t* out,
                    size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = u[i] < threshold ? 1 : 0;
}

void GrrResponseMapScalar(const double* u, const uint32_t* values,
                          uint32_t* out, size_t n, double p, double inv_rest,
                          uint32_t domain) {
  const double others = static_cast<double>(domain - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t v = values[i];
    if (u[i] < p) {
      out[i] = v;
      continue;
    }
    const double t = (u[i] - p) * inv_rest;
    uint32_t r = static_cast<uint32_t>(t * others);
    if (r > domain - 2) r = domain - 2;
    out[i] = r >= v ? r + 1 : r;
  }
}

// 256-entry table for the reflected Castagnoli polynomial, built at
// compile time (the generator is trivial and branch-free, so there is
// nothing to be gained from committing 1 KiB of literals instead).
constexpr std::array<uint32_t, 256> BuildCrcTable() {
  constexpr uint32_t kPoly = 0x82F63B78u;
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrcTable = BuildCrcTable();

uint32_t Crc32cScalar(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kCrcTable[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

constexpr KernelTable kScalarTable = {
    DotScalar,         Dot2Scalar,          SumScalar,
    AxpyScalar,        Axpy2Scalar,         MulAndSumScalar,
    ScaleScalar,       WindowCombineScalar, LessThanScalar,
    GrrResponseMapScalar, Crc32cScalar,
};

}  // namespace

const KernelTable* ScalarKernelTable() { return &kScalarTable; }

}  // namespace numdist::kernels
