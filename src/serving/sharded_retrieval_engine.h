#ifndef QSE_SERVING_SHARDED_RETRIEVAL_ENGINE_H_
#define QSE_SERVING_SHARDED_RETRIEVAL_ENGINE_H_

// A sharded engine is a RetrievalEngine over S shards; ShardedEngineOptions
// and HashShardOf live in retrieval_engine.h.  The alias keeps code that
// still names ShardedRetrievalEngine (perfbench/) building.

#include "src/retrieval/retrieval_engine.h"

namespace qse {

using ShardedRetrievalEngine = RetrievalEngine;

}  // namespace qse

#endif  // QSE_SERVING_SHARDED_RETRIEVAL_ENGINE_H_
