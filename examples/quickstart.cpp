// Quickstart: create a durable RNTree in an emulated-NVM pool, run the
// basic operations, and recover it after a clean shutdown.
//
//   build/examples/quickstart [pool-file]
//
// With a pool file the data really survives the process (the pool is a
// mmap'd file, exactly how a DAX-mounted NVM device would be used); without
// one an in-memory pool is used.
#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/rntree.hpp"
#include "nvm/pool.hpp"

int main(int argc, char** argv) {
  using Tree = rnt::core::RNTree<std::uint64_t, std::uint64_t>;

  // NVM latency model: the paper's NVDIMM write latency.
  rnt::nvm::config().write_latency_ns = 140;

  const std::string path = argc > 1 ? argv[1] : "";
  rnt::nvm::PmemPool pool(64u << 20, path);
  std::printf("pool: %zu MiB, %s-backed\n", pool.size() >> 20,
              pool.is_file_backed() ? "file" : "DRAM");

  {
    Tree tree(pool);  // dual slot array on by default

    // Conditional writes: insert fails on duplicates, update on absence.
    tree.insert(42, 4200);
    const bool dup = tree.insert(42, 9999);
    std::printf("insert(42) twice -> second returned %s (conditional write)\n",
                dup ? "true" : "false");

    for (std::uint64_t k = 0; k < 1000; ++k) tree.upsert(k, k * k);
    std::printf("upserted 1000 keys; size=%zu, leaves=%zu, inner height=%d\n",
                tree.size(), tree.leaf_count(), tree.height());

    if (auto v = tree.find(31)) std::printf("find(31) = %" PRIu64 "\n", *v);

    // Range query: sorted iteration straight off the leaf chain.
    std::printf("scan [100, 105): ");
    tree.scan(100, [](std::uint64_t k, std::uint64_t v) {
      std::printf("(%" PRIu64 ",%" PRIu64 ") ", k, v);
      return k < 104;
    });
    std::printf("\n");

    tree.remove(42);
    std::printf("removed 42; find -> %s\n",
                tree.find(42) ? "present" : "absent");

    // Per-op persistence cost: the paper's headline (2 persistent
    // instructions per modify).
    const rnt::obs::Counter& persists = rnt::nvm::persist_counters().persist;
    const std::uint64_t before = persists.local();
    tree.upsert(5000, 1);
    std::printf("one upsert issued %" PRIu64 " persistent instructions\n",
                persists.local() - before);

    tree.close();  // flush counters, mark the pool clean
  }

  // "Restart": recover the tree from the pool alone.
  pool.reopen_volatile();
  Tree recovered(Tree::recover_t{}, pool);
  std::printf("recovered: size=%zu, find(31)=%" PRIu64 "\n", recovered.size(),
              *recovered.find(31));
  return 0;
}
