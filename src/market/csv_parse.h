#ifndef CIT_MARKET_CSV_PARSE_H_
#define CIT_MARKET_CSV_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "common/status.h"

// Hardened cell-level CSV parsing for LoadPanelCsv: full-string integer
// and price-cell parses that reject what atoll/strtod would silently
// accept.

namespace cit::market::csv_internal {

// CRLF files reach us with the '\r' still attached (getline only strips
// '\n'); without this the last asset name and every row's last cell carry
// a carriage return that used to silently corrupt names and parses.
inline void StripTrailingCr(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

// Full-string integer parse; atoll's silent 0-on-garbage is exactly the
// bug this replaces.
inline bool ParseInt64(const std::string& text, int64_t* out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

// Full-cell price parse: rejects empty cells, partial parses ("12abc"),
// non-finite values (strtod happily produces NaN/Inf from "nan"/"inf",
// which the old `v <= 0` guard let through), and non-positive prices.
inline Status ParsePriceCell(const std::string& cell, double* out) {
  if (cell.empty()) {
    return Status::InvalidArgument("empty price cell in CSV");
  }
  char* end = nullptr;
  const double v = std::strtod(cell.c_str(), &end);
  if (end != cell.c_str() + cell.size()) {
    return Status::InvalidArgument("non-numeric price cell: '" + cell + "'");
  }
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("non-finite price in CSV: '" + cell + "'");
  }
  if (v <= 0.0) {
    return Status::InvalidArgument("non-positive price in CSV: '" + cell +
                                   "'");
  }
  *out = v;
  return Status::OK();
}

}  // namespace cit::market::csv_internal

#endif  // CIT_MARKET_CSV_PARSE_H_
