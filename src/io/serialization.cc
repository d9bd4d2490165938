#include "io/serialization.h"

#include <vector>

#include "io/fs_util.h"
#include "io/varint.h"

namespace dki {
namespace {

bool Fail(std::string* error, const std::string& message) {
  *error = message;
  return false;
}

constexpr std::string_view kGraphV2Magic = "dki-graph v2\n";
constexpr std::string_view kIndexV2Magic = "dki-index v2\n";
constexpr std::string_view kReqsV2Magic = "dki-reqs v2\n";

// Batches varint/raw emissions into bounded chunks before handing them to
// the sink, so encoding a multi-gigabyte state costs one virtual call per
// ~32 KiB instead of per value — and peak buffering stays O(1).
class ChunkedWriter {
 public:
  static constexpr size_t kChunkBytes = 32 * 1024;

  explicit ChunkedWriter(ByteSink* sink) : sink_(sink) {}

  void Varint(uint64_t v) {
    AppendVarint(v, &buf_);
    MaybeFlush();
  }
  void Deltas(const int32_t* values, size_t n) {
    AppendDeltaArray(values, n, &buf_);
    MaybeFlush();
  }
  void Raw(std::string_view s) {
    buf_.append(s);
    MaybeFlush();
  }
  // Drains the chunk buffer; returns false iff any sink write failed.
  bool Flush() {
    if (!buf_.empty()) {
      if (!sink_->Append(buf_)) ok_ = false;
      buf_.clear();
    }
    return ok_;
  }

 private:
  void MaybeFlush() {
    if (buf_.size() >= kChunkBytes) Flush();
  }

  ByteSink* sink_;
  std::string buf_;
  bool ok_ = true;
};

bool ExpectMagic(std::string_view data, size_t* pos, std::string_view magic,
                 const char* what, std::string* error) {
  if (data.substr(*pos, magic.size()) != magic) {
    return Fail(error, std::string("bad ") + what + " v2 magic");
  }
  *pos += magic.size();
  return true;
}

bool ReadVarintOr(std::string_view data, size_t* pos, uint64_t* out,
                  const char* what, std::string* error) {
  if (!GetVarint(data, pos, out)) {
    return Fail(error, std::string("truncated ") + what);
  }
  return true;
}

}  // namespace

bool SaveGraphV2(const DataGraph& graph, ByteSink* sink) {
  ChunkedWriter w(sink);
  w.Raw(kGraphV2Magic);
  // Label names are length-prefixed, so any byte sequence round-trips.
  w.Varint(static_cast<uint64_t>(graph.labels().size()));
  for (LabelId l = 0; l < graph.labels().size(); ++l) {
    const std::string& name = graph.labels().Name(l);
    w.Varint(name.size());
    w.Raw(name);
  }
  const int64_t n = graph.NumNodes();
  w.Varint(static_cast<uint64_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    w.Varint(static_cast<uint64_t>(graph.label(v)));
  }
  // Child adjacency as CSR rows: degree, then zigzag deltas (insertion
  // order preserved — DataGraph does not promise sorted children, and the
  // round trip must be bit-identical).
  for (NodeId v = 0; v < n; ++v) {
    const auto& c = graph.children(v);
    w.Varint(c.size());
    w.Deltas(c.data(), c.size());
  }
  return w.Flush();
}

bool LoadGraphV2(std::string_view data, size_t* pos, DataGraph* graph,
                 std::string* error) {
  if (!ExpectMagic(data, pos, kGraphV2Magic, "graph", error)) return false;
  uint64_t label_count = 0;
  if (!ReadVarintOr(data, pos, &label_count, "label count", error)) {
    return false;
  }
  if (label_count < 2 || label_count > (uint64_t{1} << 31)) {
    return Fail(error, "bad label count");
  }
  DataGraph loaded;
  for (uint64_t i = 0; i < label_count; ++i) {
    uint64_t len = 0;
    if (!ReadVarintOr(data, pos, &len, "label name length", error)) {
      return false;
    }
    if (len > data.size() - *pos) return Fail(error, "truncated label name");
    std::string name(data.substr(*pos, static_cast<size_t>(len)));
    *pos += static_cast<size_t>(len);
    LabelId id = loaded.labels().Intern(name);
    if (id != static_cast<LabelId>(i)) {
      return Fail(error, "label table not dense (duplicate '" + name + "')");
    }
  }
  uint64_t node_count = 0;
  if (!ReadVarintOr(data, pos, &node_count, "node count", error)) {
    return false;
  }
  if (node_count < 1 || node_count > (uint64_t{1} << 31)) {
    return Fail(error, "bad node count");
  }
  for (uint64_t v = 0; v < node_count; ++v) {
    uint64_t label = 0;
    if (!ReadVarintOr(data, pos, &label, "node label", error)) return false;
    if (label >= label_count) {
      return Fail(error, "node with out-of-range label");
    }
    if (v == 0) {
      if (static_cast<LabelId>(label) != LabelTable::kRootLabel) {
        return Fail(error, "node 0 must be the ROOT node");
      }
      continue;  // the constructor created it
    }
    loaded.AddNode(static_cast<LabelId>(label));
  }
  std::vector<int32_t> row;
  for (uint64_t v = 0; v < node_count; ++v) {
    uint64_t degree = 0;
    if (!ReadVarintOr(data, pos, &degree, "node degree", error)) return false;
    if (degree > node_count) return Fail(error, "bad node degree");
    row.resize(static_cast<size_t>(degree));
    if (!GetDeltaArray(data, pos, row.size(), row.data())) {
      return Fail(error, "truncated edge list");
    }
    for (int32_t child : row) {
      if (child < 0 || child >= static_cast<int64_t>(node_count)) {
        return Fail(error, "edge endpoint out of range");
      }
      loaded.AddEdgeUnchecked(static_cast<NodeId>(v),
                              static_cast<NodeId>(child));
    }
  }
  *graph = std::move(loaded);
  return true;
}

IndexSection::IndexSection(const IndexGraph& index)
    : IndexSection(index.NumIndexNodes(), [&index](IndexNodeId i) {
        return IndexNodeRecord{index.label(i), index.k(i), index.extent(i)};
      }) {}

bool SaveIndexV2(const IndexSection& index, ByteSink* sink) {
  ChunkedWriter w(sink);
  w.Raw(kIndexV2Magic);
  w.Varint(static_cast<uint64_t>(index.num_index_nodes));
  for (IndexNodeId i = 0; i < index.num_index_nodes; ++i) {
    const IndexNodeRecord node = index.node(i);
    w.Varint(static_cast<uint64_t>(node.label));
    w.Varint(static_cast<uint64_t>(node.k));
    w.Varint(node.extent.size());
    w.Deltas(node.extent.data(), node.extent.size());
  }
  return w.Flush();
}

bool LoadIndexV2(std::string_view data, size_t* pos, const DataGraph* graph,
                 IndexGraph* index, std::string* error) {
  if (!ExpectMagic(data, pos, kIndexV2Magic, "index", error)) return false;
  uint64_t count = 0;
  if (!ReadVarintOr(data, pos, &count, "index_nodes count", error)) {
    return false;
  }
  const uint64_t n = static_cast<uint64_t>(graph->NumNodes());
  if (count < 1 || count > n) return Fail(error, "bad index_nodes count");

  std::vector<int32_t> block_of(static_cast<size_t>(n), -1);
  std::vector<int> block_k;
  std::vector<int32_t> members;
  for (uint64_t b = 0; b < count; ++b) {
    uint64_t label = 0, k = 0, size = 0;
    if (!ReadVarintOr(data, pos, &label, "index node label", error) ||
        !ReadVarintOr(data, pos, &k, "index node k", error) ||
        !ReadVarintOr(data, pos, &size, "extent size", error)) {
      return false;
    }
    if (size < 1 || size > n) return Fail(error, "bad extent size");
    if (k > (uint64_t{1} << 30)) return Fail(error, "bad index node k");
    block_k.push_back(static_cast<int>(k));
    members.resize(static_cast<size_t>(size));
    if (!GetDeltaArray(data, pos, members.size(), members.data())) {
      return Fail(error, "truncated extent");
    }
    for (int32_t member : members) {
      if (member < 0 || static_cast<uint64_t>(member) >= n) {
        return Fail(error, "extent member out of range");
      }
      if (block_of[static_cast<size_t>(member)] != -1) {
        return Fail(error, "data node in two extents");
      }
      if (graph->label(static_cast<NodeId>(member)) !=
          static_cast<LabelId>(label)) {
        return Fail(error, "extent member label mismatch");
      }
      block_of[static_cast<size_t>(member)] = static_cast<int32_t>(b);
    }
  }
  for (NodeId v = 0; v < graph->NumNodes(); ++v) {
    if (block_of[static_cast<size_t>(v)] == -1) {
      return Fail(error, "data node missing from every extent");
    }
  }
  *index = IndexGraph::FromPartition(graph, block_of,
                                     static_cast<int32_t>(count), block_k);
  return true;
}

bool SaveDkIndexPartsV2(const DataGraph& graph, const IndexSection& index,
                        const std::vector<int>& reqs, ByteSink* sink) {
  if (!SaveGraphV2(graph, sink)) return false;
  if (!SaveIndexV2(index, sink)) return false;
  ChunkedWriter w(sink);
  w.Raw(kReqsV2Magic);
  w.Varint(reqs.size());
  for (int r : reqs) w.Varint(static_cast<uint64_t>(r));
  return w.Flush();
}

std::optional<DkIndex> LoadDkIndexV2(std::string_view data, size_t* pos,
                                     DataGraph* graph, std::string* error) {
  if (!LoadGraphV2(data, pos, graph, error)) return std::nullopt;
  IndexGraph loaded_index(graph);
  if (!LoadIndexV2(data, pos, graph, &loaded_index, error)) {
    return std::nullopt;
  }
  if (!ExpectMagic(data, pos, kReqsV2Magic, "requirements", error)) {
    return std::nullopt;
  }
  uint64_t count = 0;
  if (!ReadVarintOr(data, pos, &count, "requirements count", error)) {
    return std::nullopt;
  }
  if (count != static_cast<uint64_t>(graph->labels().size())) {
    Fail(error, "bad effective_requirements section");
    return std::nullopt;
  }
  std::vector<int> reqs;
  reqs.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t r = 0;
    if (!ReadVarintOr(data, pos, &r, "effective requirement", error)) {
      return std::nullopt;
    }
    if (r > (uint64_t{1} << 30)) {
      Fail(error, "bad effective requirement");
      return std::nullopt;
    }
    reqs.push_back(static_cast<int>(r));
  }
  std::string invariant;
  if (!loaded_index.ValidatePartition(&invariant)) {
    Fail(error, "loaded index invalid: " + invariant);
    return std::nullopt;
  }
  return DkIndex::FromParts(graph, std::move(loaded_index), std::move(reqs));
}

bool LoadGraphV2Exact(std::string_view data, DataGraph* graph,
                      std::string* error) {
  size_t pos = 0;
  if (!LoadGraphV2(data, &pos, graph, error)) return false;
  return pos == data.size() || Fail(error, "trailing bytes after graph");
}

std::optional<DkIndex> LoadDkIndexV2Exact(std::string_view data,
                                          DataGraph* graph,
                                          std::string* error) {
  size_t pos = 0;
  auto dk = LoadDkIndexV2(data, &pos, graph, error);
  if (dk.has_value() && pos != data.size()) {
    Fail(error, "trailing bytes after index");
    return std::nullopt;
  }
  return dk;
}

bool SaveGraphToFile(const DataGraph& graph, const std::string& path) {
  AtomicFileWriter file;
  std::string error;
  return file.Open(path, &error) && SaveGraphV2(graph, &file) &&
         file.Finish(&error);
}

bool LoadGraphFromFile(const std::string& path, DataGraph* graph,
                       std::string* error) {
  std::string data;
  return ReadFileToString(path, &data, error) &&
         LoadGraphV2Exact(data, graph, error);
}

bool SaveDkIndexToFile(const DkIndex& index, const std::string& path) {
  AtomicFileWriter file;
  std::string error;
  return file.Open(path, &error) &&
         SaveDkIndexPartsV2(index.graph(), index.index(),
                            index.effective_requirements(), &file) &&
         file.Finish(&error);
}

std::optional<DkIndex> LoadDkIndexFromFile(const std::string& path,
                                           DataGraph* graph,
                                           std::string* error) {
  std::string data;
  if (!ReadFileToString(path, &data, error)) return std::nullopt;
  return LoadDkIndexV2Exact(data, graph, error);
}

}  // namespace dki
