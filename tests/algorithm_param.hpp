// The algorithm parameter of the parameterized suites.
//
// gtest writes each parameter's printed value into the test id, and a type
// with no printer prints as its raw bytes ("4-byte object <01-00 00-00>").
// The suites therefore sweep this 4-byte index, not the registry name
// string, so their test ids stay stable; registry_name() resolves it at the
// point of use. Non-parameterized tests name algorithms by registry string.
#pragma once

#include <cstdint>

namespace graybox {

enum class AlgoParam : std::uint32_t { kRicartAgrawala, kLamport, kFragile };

/// The me::ProtocolRegistry name the index stands for.
inline const char* registry_name(AlgoParam a) {
  switch (a) {
    case AlgoParam::kRicartAgrawala:
      return "ricart-agrawala";
    case AlgoParam::kLamport:
      return "lamport";
    case AlgoParam::kFragile:
      return "fragile-ra";
  }
  return "unknown";
}

}  // namespace graybox
