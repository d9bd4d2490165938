// Auction-site scenario (the XMark workload from the paper's evaluation):
// generate a site document, mine requirements from a realistic query load,
// and watch the D(k)-index adapt — through data updates (new IDREF edges)
// and a query-load shift handled by retunes (DkIndex::Demote), raising k
// for the new load and then dropping the old one.
//
//   $ ./build/examples/auction_site

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/timer.h"
#include "datagen/xmark_generator.h"
#include "index/ak_index.h"
#include "index/dk_index.h"
#include "query/evaluator.h"
#include "query/load_analyzer.h"
#include "serve/apply.h"

namespace {

int64_t WorkloadCost(const dki::IndexGraph& index,
                     const std::vector<dki::PathExpression>& load) {
  dki::EvalStats total;
  for (const auto& q : load) dki::EvaluateOnIndex(index, q, &total);
  return total.cost();
}

std::vector<dki::PathExpression> Parse(const std::vector<std::string>& texts,
                                       const dki::LabelTable& labels) {
  std::vector<dki::PathExpression> out;
  for (const auto& t : texts) {
    std::string error;
    auto q = dki::PathExpression::Parse(t, labels, &error);
    if (q.has_value()) out.push_back(std::move(*q));
  }
  return out;
}

}  // namespace

int main() {
  dki::XmarkOptions options;
  options.scale = 2.0;
  dki::DataGraph g = dki::GenerateXmarkGraph(options).graph;
  std::printf("auction site: %lld nodes, %lld edges, %lld labels\n",
              static_cast<long long>(g.NumNodes()),
              static_cast<long long>(g.NumEdges()),
              static_cast<long long>(g.labels().size()));

  // A hand-written auction query load: who bids, what sells, which items
  // belong to which category.
  std::vector<std::string> load_texts = {
      "open_auction.bidder.personref",
      "open_auctions.open_auction.seller",
      "closed_auction.buyer",
      "item.incategory",
      "person.watches.watch",
      "site.people.person.name",
  };
  auto load = Parse(load_texts, g.labels());
  dki::LabelRequirements reqs = dki::MineRequirements(load, g.labels());

  dki::DkIndex dk = dki::DkIndex::Build(&g, reqs);
  dki::DataGraph g_a3 = g;
  dki::AkIndex a3 = dki::AkIndex::Build(&g_a3, 3);
  std::printf("index size: D(k)=%lld vs uniform A(3)=%lld\n",
              static_cast<long long>(dk.index().NumIndexNodes()),
              static_cast<long long>(a3.index().NumIndexNodes()));
  std::printf("workload cost: D(k)=%lld vs A(3)=%lld (nodes visited)\n",
              static_cast<long long>(WorkloadCost(dk.index(), load)),
              static_cast<long long>(WorkloadCost(a3.index(), load)));

  // --- live updates: users watch auctions, items get recategorized.
  dki::Rng rng(11);
  auto persons = g.NodesWithLabel(g.labels().Find("person"));
  auto watches = g.NodesWithLabel(g.labels().Find("watch"));
  auto auctions = g.NodesWithLabel(g.labels().Find("open_auction"));
  dki::WallTimer timer;
  for (int i = 0; i < 200; ++i) {
    dki::NodeId from = rng.Pick(watches);
    dki::NodeId to = rng.Pick(auctions);
    dk.AddEdge(from, to);
  }
  std::printf("200 watch->auction updates in %.2f ms (index size still %lld)\n",
              timer.ElapsedMillis(),
              static_cast<long long>(dk.index().NumIndexNodes()));
  std::printf("workload cost after updates: %lld\n",
              static_cast<long long>(WorkloadCost(dk.index(), load)));

  // --- the query load shifts: analysts start asking deeper questions.
  std::vector<std::string> deep_texts = {
      "site.open_auctions.open_auction.bidder.personref",
      "site.closed_auctions.closed_auction.annotation.author",
  };
  auto deep = Parse(deep_texts, g.labels());
  dki::LabelRequirements deep_reqs = dki::MineRequirements(deep, g.labels());
  timer.Restart();
  // A grow retune raises k for the deep labels and keeps the rest: one
  // Demote to the current requirements merged per label with the new ones.
  dki::ApplyUpdateOp(&dk, dki::UpdateOp::Retune(deep_reqs, /*shrink=*/false));
  std::printf("raised k for the deeper load in %.2f ms; size now %lld\n",
              timer.ElapsedMillis(),
              static_cast<long long>(dk.index().NumIndexNodes()));
  dki::EvalStats stats;
  for (const auto& q : deep) dki::EvaluateOnIndex(dk.index(), q, &stats);
  std::printf("deep queries: cost=%lld, validation %s\n",
              static_cast<long long>(stats.cost()),
              stats.uncertain_index_nodes == 0 ? "not needed" : "needed");

  // --- and the old shallow load fades: demote to shrink the index.
  timer.Restart();
  dk.Demote(deep_reqs);
  std::printf("demoted to the deep load only in %.2f ms; size now %lld\n",
              timer.ElapsedMillis(),
              static_cast<long long>(dk.index().NumIndexNodes()));
  (void)persons;
  return 0;
}
