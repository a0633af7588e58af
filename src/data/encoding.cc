#include "data/encoding.h"

namespace hido {

// ReadCsvEncoded and ReadCsvEncodedString live in csv.cc beside ReadCsv:
// all of them run the one CSV scanner there.

std::string EncodedDataset::Decode(size_t column, double code) const {
  for (const CategoricalMapping& mapping : categorical) {
    if (mapping.column != column) continue;
    const auto idx = static_cast<size_t>(code);
    if (code < 0.0 || idx >= mapping.values.size()) return "";
    return mapping.values[idx];
  }
  return "";
}

}  // namespace hido
