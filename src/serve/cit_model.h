#ifndef CIT_SERVE_CIT_MODEL_H_
#define CIT_SERVE_CIT_MODEL_H_

#include <cstdint>
#include <string>

#include "core/config.h"
#include "serve/server.h"

namespace cit::serve {

// A ModelFactory serving the cross-insight trader: each worker gets its
// own CrossInsightTrader replica built from (num_assets, config) and, when
// `initial_weights_path` is non-empty, loaded from that weights file
// before the server starts accepting. The file is read once, when the
// factory is made; a file that cannot be read or loaded fails every
// replica, and so Server::Start.
//
// The adapter makes serving stateless: every flush goes through
// DecideWeightsBatch, which uses uniform previous actions and skips the
// feature cache, so a served decision is bitwise-identical to Reset() +
// DecideWeights(panel, last_day) on a library-held trader with the same
// weights — the equivalence the serve soak test pins down.
ModelFactory MakeCitModelFactory(int64_t num_assets,
                                 const core::CrossInsightConfig& config,
                                 const std::string& initial_weights_path = "");

}  // namespace cit::serve

#endif  // CIT_SERVE_CIT_MODEL_H_
