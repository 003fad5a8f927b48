#include "common/crc32.h"

#include "kernels/kernels.h"

namespace numdist {

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  return kernels::Crc32c(data, len, seed);
}

}  // namespace numdist
