#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/checkpoint.h"

namespace cit::nn {
namespace {

constexpr char kMagic[] = "CITW1\n";
constexpr size_t kMagicLen = sizeof(kMagic) - 1;

}  // namespace

Status SaveParameters(const Module& module, const std::string& path) {
  ByteWriter w;
  w.Raw(kMagic, kMagicLen);
  AppendModuleParameters(module, &w);
  return AtomicWriteFile(path, w.bytes().data(), w.bytes().size());
}

Status LoadParameters(Module* module, const std::string& path) {
  std::vector<uint8_t> bytes;
  if (Status s = ReadFileBytes(path, &bytes); !s.ok()) return s;
  if (Status s = LoadParametersFromBytes(module, bytes); !s.ok()) {
    return Status(s.code(), s.message() + " in " + path);
  }
  return Status::OK();
}

Status LoadParametersFromBytes(Module* module,
                               const std::vector<uint8_t>& bytes) {
  if (bytes.size() < kMagicLen ||
      std::memcmp(bytes.data(), kMagic, kMagicLen) != 0) {
    return Status::InvalidArgument("bad magic");
  }
  ByteReader r(bytes.data() + kMagicLen, bytes.size() - kMagicLen);
  // Parse everything into staging first (validating names, shapes, and
  // finiteness) so a malformed file leaves the module untouched.
  std::vector<math::Tensor> staged;
  if (Status s = ParseParameters(&r, *module, &staged); !s.ok()) return s;
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after last tensor");
  }
  CommitParameters(std::move(staged), *module);
  return Status::OK();
}

}  // namespace cit::nn
