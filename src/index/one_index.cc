#include "index/one_index.h"

#include "index/dk_index.h"

namespace dki {

IndexGraph OneIndex::Build(const DataGraph* graph) {
  const std::vector<int> req(static_cast<size_t>(graph->labels().size()),
                             IndexGraph::kInfiniteSimilarity);
  std::vector<int> block_k;
  Partition p = BuildDkPartition(*graph, req, &block_k);
  return IndexGraph::FromPartition(graph, p.block_of, p.num_blocks, block_k);
}

}  // namespace dki
