#ifndef RST_STORAGE_VARINT_H_
#define RST_STORAGE_VARINT_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "rst/common/status.h"

namespace rst {

/// LEB128 variable-length integer codecs over a std::string buffer, plus
/// fixed-width float and double: the primitives of the frozen snapshot
/// format. VarintLength also sizes the index node format (node_size.h).

void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
void PutFloat(std::string* dst, float value);
void PutDouble(std::string* dst, double value);

/// Cursor-based decoding; each Get* advances *offset and returns an error
/// Status on truncation/corruption.
Status GetVarint32(const std::string& src, size_t* offset, uint32_t* value);
Status GetVarint64(const std::string& src, size_t* offset, uint64_t* value);
Status GetFloat(const std::string& src, size_t* offset, float* value);
Status GetDouble(const std::string& src, size_t* offset, double* value);

/// Number of bytes PutVarint32 would append.
size_t VarintLength(uint64_t value);

}  // namespace rst

#endif  // RST_STORAGE_VARINT_H_
