#ifndef CIT_NN_SERIALIZE_H_
#define CIT_NN_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "nn/module.h"

namespace cit::nn {

// Saves every named parameter of `module` to a simple binary container:
//   magic "CITW1\n", then per parameter: name line, ndim, dims, float data.
// Parameter order and names must match on load (they are derived from the
// module structure, so any identically-configured module matches). The
// file is written atomically (tmp + fsync + rename), so a crash mid-save
// never corrupts an existing weights file.
//
// For full training state (optimizer moments, update index, RNG) use the
// checkpoint container in nn/checkpoint.h instead; this format carries
// weights only.
Status SaveParameters(const Module& module, const std::string& path);

// Loads parameters saved by SaveParameters into `module`. Everything is
// parsed and validated into staging first — name, count, or shape
// mismatches, truncation, non-finite values, and trailing bytes all fail
// without modifying the module.
Status LoadParameters(Module* module, const std::string& path);

// LoadParameters without the file read: `bytes` is a whole weights file.
Status LoadParametersFromBytes(Module* module,
                               const std::vector<uint8_t>& bytes);

}  // namespace cit::nn

#endif  // CIT_NN_SERIALIZE_H_
