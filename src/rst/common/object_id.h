#ifndef RST_COMMON_OBJECT_ID_H_
#define RST_COMMON_OBJECT_ID_H_

#include <cstdint>

namespace rst {

/// Identifier of an indexed object (dataset-assigned).
using ObjectId = uint32_t;

}  // namespace rst

#endif  // RST_COMMON_OBJECT_ID_H_
