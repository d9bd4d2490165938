#include "index/partition.h"

namespace dki {

void RenumberByFirstAppearance(Partition* p) {
  std::vector<int32_t> id_of(static_cast<size_t>(p->num_blocks), -1);
  std::vector<LabelId> block_label(static_cast<size_t>(p->num_blocks));
  int32_t next = 0;
  for (int32_t& b : p->block_of) {
    int32_t& id = id_of[static_cast<size_t>(b)];
    if (id == -1) {
      id = next++;
      block_label[static_cast<size_t>(id)] =
          p->block_label[static_cast<size_t>(b)];
    }
    b = id;
  }
  DKI_CHECK_EQ(next, p->num_blocks);  // every block has a member
  p->block_label = std::move(block_label);
}

}  // namespace dki
