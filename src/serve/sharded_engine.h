// The former sharded engine's name. Shard tilings are served by
// QueryEngine (serve/query_engine.h); this alias keeps code written against
// the old name compiling.

#ifndef WCSD_SERVE_SHARDED_ENGINE_H_
#define WCSD_SERVE_SHARDED_ENGINE_H_

#include "serve/query_engine.h"

namespace wcsd {

using ShardedQueryEngine = QueryEngine;

}  // namespace wcsd

#endif  // WCSD_SERVE_SHARDED_ENGINE_H_
