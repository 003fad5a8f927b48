// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
// the integrity check framing the write-ahead log records (serve/wal.h).
//
// Every accepted frame is checksummed on the collector's reactor thread
// when it is logged, and again when the log is replayed, so this sits on
// the durable path's critical path. It runs on the kernel ladder
// (kernels/kernels.h): the AVX2 and AVX-512 tiers use the SSE4.2 crc32
// instruction, 8 bytes per step; the scalar tier (NUMDIST_FORCE_ISA=scalar,
// or a CPU without those tiers) is a byte-wise table. CRC is exact, so the
// tiers agree bit for bit and a log written under one tier replays under
// any other. The byte-level framing this checksum participates in is
// specified in docs/WIRE_FORMAT.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace numdist {

/// CRC-32C of `data`, continuing from `seed` (pass the previous call's
/// return value to checksum a logical record fed in pieces). The empty
/// string checksums to 0.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

}  // namespace numdist
