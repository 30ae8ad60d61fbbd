// Section 3 claim, verified byte-exactly: FSAIE-Comm extensions leave the
// halo-update communication scheme of both G x and G^T x untouched, while a
// naive halo extension (FSAIE-Full, same cache-line rule without the
// admission test) inflates traffic. For every suite matrix this bench
// reports the bytes and messages of one halo update of G and G^T under each
// method, plus the number of extension entries gained in the halo.
#include "bench_common.hpp"

#include "dist/comm_scheme.hpp"

int main() {
  using namespace fsaic;
  using namespace fsaic::bench;
  print_header("Communication invariance — FSAI vs FSAIE vs FSAIE-Comm vs naive",
               "HPDC'22 Section 3 ('the communication cost is unvaried')");

  ExperimentConfig cfg;
  cfg.machine = machine_a64fx();  // 256 B lines: widest extensions
  ExperimentRunner runner(cfg);
  const auto report = attach_env_report(runner);

  TextTable table({"Matrix", "Ranks", "halo.B.fsai", "halo.B.comm",
                   "halo.B.naive", "msgs.fsai", "msgs.comm", "msgs.naive",
                   "halo.added.comm", "halo.added.naive"});
  int invariant = 0;
  int naive_grew = 0;
  for (const auto& entry : small_suite()) {
    const auto& sys = runner.prepare(entry);
    FsaiOptions opts;
    opts.cache_line_bytes = cfg.machine.l1.line_bytes;
    opts.extension = ExtensionMode::None;
    const auto fsai =
        build_fsai_preconditioner(sys.assembled(), sys.layout(), opts);
    opts.extension = ExtensionMode::CommAware;
    const auto comm =
        build_fsai_preconditioner(sys.assembled(), sys.layout(), opts);
    opts.extension = ExtensionMode::FullHalo;
    const auto naive =
        build_fsai_preconditioner(sys.assembled(), sys.layout(), opts);

    const auto total_bytes = [](const FsaiBuildResult& b) {
      return b.g_dist.halo_update_bytes() + b.gt_dist.halo_update_bytes();
    };
    const auto total_msgs = [](const FsaiBuildResult& b) {
      return b.g_dist.halo_update_messages() + b.gt_dist.halo_update_messages();
    };
    const ExtensionResult ext_comm =
        extend_pattern(fsai.base_pattern, sys.layout(), opts.cache_line_bytes,
                       ExtensionMode::CommAware);
    const ExtensionResult ext_naive =
        extend_pattern(fsai.base_pattern, sys.layout(), opts.cache_line_bytes,
                       ExtensionMode::FullHalo);

    if (total_bytes(comm) == total_bytes(fsai) &&
        total_msgs(comm) == total_msgs(fsai)) {
      ++invariant;
    }
    if (total_bytes(naive) > total_bytes(fsai)) ++naive_grew;

    table.add_row({entry.name, std::to_string(sys.nranks),
                   std::to_string(total_bytes(fsai)),
                   std::to_string(total_bytes(comm)),
                   std::to_string(total_bytes(naive)),
                   std::to_string(total_msgs(fsai)),
                   std::to_string(total_msgs(comm)),
                   std::to_string(total_msgs(naive)),
                   std::to_string(ext_comm.halo_added),
                   std::to_string(ext_naive.halo_added)});

    // This bench never calls runner.run(), so it feeds the FSAIC_REPORT
    // writer its own per-matrix invariance record.
    if (report != nullptr) {
      JsonValue rec = JsonValue::object();
      rec["kind"] = "comm_invariance";
      rec["matrix"] = entry.name;
      rec["ranks"] = sys.nranks;
      rec["halo_bytes_fsai"] = total_bytes(fsai);
      rec["halo_bytes_comm"] = total_bytes(comm);
      rec["halo_bytes_naive"] = total_bytes(naive);
      rec["halo_msgs_fsai"] = total_msgs(fsai);
      rec["halo_msgs_comm"] = total_msgs(comm);
      rec["halo_msgs_naive"] = total_msgs(naive);
      rec["halo_added_comm"] = ext_comm.halo_added;
      rec["halo_added_naive"] = ext_naive.halo_added;
      report->write(rec);

      // Companion record: the same scheme realized over a two-level
      // topology. Payload bytes are invariant by construction (aggregation
      // merges messages, never duplicates coefficients); the wire message
      // count drops whenever several ranks of one node talk to the same
      // peer node. CI gates on both properties.
      const int rpn = 4;
      const CommConfig node_cfg{CommMode::NodeAware, rpn};
      const NodeTopology topo = node_cfg.topology(sys.nranks);
      // The build distributes its factors flat; re-realize them node-aware.
      DistCsr g_na = comm.g_dist;
      DistCsr gt_na = comm.gt_dist;
      g_na.use_comm(node_cfg);
      gt_na.use_comm(node_cfg);
      const auto level_bytes = [&](const DistCsr& d, CommLevel level) {
        std::int64_t bytes = 0;
        for (rank_t p = 0; p < d.nranks(); ++p) {
          for (const auto& nb : d.block(p).recv) {
            if (topo.level_of(nb.rank, p) == level) {
              bytes += static_cast<std::int64_t>(nb.gids.size()) *
                       static_cast<std::int64_t>(sizeof(value_t));
            }
          }
        }
        return bytes;
      };
      JsonValue topo_rec = JsonValue::object();
      topo_rec["kind"] = "comm_topology";
      topo_rec["matrix"] = entry.name;
      topo_rec["ranks"] = sys.nranks;
      topo_rec["ranks_per_node"] = rpn;
      topo_rec["halo_bytes_flat"] = total_bytes(comm);
      topo_rec["halo_bytes_node_aware"] =
          g_na.halo_update_bytes() + gt_na.halo_update_bytes();
      topo_rec["halo_msgs_flat"] = total_msgs(comm);
      topo_rec["halo_msgs_node_aware"] =
          g_na.halo_update_messages() + gt_na.halo_update_messages();
      topo_rec["halo_intra_msgs"] = g_na.halo_update_intra_messages() +
                                    gt_na.halo_update_intra_messages();
      topo_rec["halo_inter_msgs"] = g_na.halo_update_inter_messages() +
                                    gt_na.halo_update_inter_messages();
      topo_rec["halo_intra_bytes"] =
          level_bytes(g_na, CommLevel::Intra) +
          level_bytes(gt_na, CommLevel::Intra);
      topo_rec["halo_inter_bytes"] =
          level_bytes(g_na, CommLevel::Inter) +
          level_bytes(gt_na, CommLevel::Inter);
      report->write(topo_rec);
    }
  }
  table.print(std::cout);
  std::cout << "\nFSAIE-Comm kept the scheme byte-identical on " << invariant
            << "/39 matrices; the naive extension grew traffic on "
            << naive_grew << "/39.\n";
  return 0;
}
