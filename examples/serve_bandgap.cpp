// Serving — stand up the inference subsystem end to end: briefly train a
// band-gap regressor, checkpoint it, load the checkpoint into an
// InferenceSession, and drive a BatchScheduler with a closed-loop load
// generator (several concurrent client threads, each firing its next
// request as soon as the previous future resolves). Every response is
// checked bit-exactly against a single-structure reference prediction.
//
// Usage: serve_bandgap [clients] [requests_per_client]
//   defaults: 6 clients x 200 requests = 1200 requests total.
//
// raw-threads-ok: the closed-loop clients block on scheduler futures;
// running them on the shared pool would starve the serve dispatch jobs
// they are waiting for.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "data/dataloader.hpp"
#include "materials/materials_project.hpp"
#include "models/egnn.hpp"
#include "obs/metrics.hpp"
#include "optim/adam.hpp"
#include "serve/serve.hpp"
#include "tasks/regression.hpp"
#include "train/checkpoint.hpp"
#include "train/trainer.hpp"

namespace {

using namespace matsci;

models::EGNNConfig encoder_config() {
  models::EGNNConfig cfg;
  cfg.hidden_dim = 32;
  cfg.pos_hidden = 16;
  cfg.num_layers = 3;
  return cfg;
}

models::OutputHeadConfig head_config() {
  models::OutputHeadConfig cfg;
  cfg.hidden_dim = 32;
  cfg.num_blocks = 2;
  cfg.dropout = 0.2f;  // eval mode silences it — serving is deterministic
  return cfg;
}

std::shared_ptr<tasks::ScalarRegressionTask> make_task(
    std::uint64_t seed, const data::TargetStats& stats) {
  core::RngEngine rng(seed);
  auto encoder = std::make_shared<models::EGNN>(encoder_config(), rng);
  return std::make_shared<tasks::ScalarRegressionTask>(
      encoder, "band_gap", head_config(), rng, stats);
}

}  // namespace

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 6;
  const int per_client = argc > 2 ? std::atoi(argv[2]) : 200;
  if (clients < 1 || per_client < 1) {
    std::fprintf(stderr,
                 "usage: serve_bandgap [clients >= 1] [requests_per_client "
                 ">= 1]\n");
    return 2;
  }

  // --- 1. train briefly and write a checkpoint ------------------------------
  materials::MaterialsProjectDataset dataset(256, 47);
  const data::TargetStats stats =
      data::compute_target_stats(dataset, "band_gap");
  auto trained = make_task(5, stats);
  {
    data::DataLoaderOptions lo;
    lo.batch_size = 16;
    lo.collate.radius.cutoff = 4.5;
    data::DataLoader loader(dataset, lo);
    optim::Adam opt = optim::make_adamw(trained->parameters(), 3e-3);
    train::TrainerOptions topts;
    topts.max_epochs = 2;
    train::Trainer(topts).fit(*trained, loader, nullptr, opt);
  }
  const std::string ckpt = "served_bandgap.msck";
  {
    optim::Adam opt = optim::make_adamw(trained->parameters(), 3e-3);
    train::save_training_checkpoint(ckpt, *trained, opt, 2);
  }
  std::printf("trained 2 epochs, checkpoint written to %s\n", ckpt.c_str());

  // --- 2. serving session from the checkpoint -------------------------------
  // A *fresh* task (different init) proves the weights really come from
  // the checkpoint file, exactly as a standalone server process would.
  serve::InferenceSessionOptions sopts;
  sopts.collate.radius.cutoff = 4.5;
  auto session = std::make_shared<serve::InferenceSession>(
      make_task(9999, stats), sopts);
  const nn::LoadReport report = session->load_checkpoint(ckpt);
  std::printf("session loaded %lld parameters from checkpoint\n",
              static_cast<long long>(report.loaded));

  // --- 3. reference answers (single-structure forwards) ---------------------
  constexpr std::int64_t kPoolSize = 48;
  std::vector<data::StructureSample> pool;
  std::vector<float> reference;
  for (std::int64_t i = 0; i < kPoolSize; ++i) {
    pool.push_back(dataset.get(i));
    reference.push_back(session->predict({pool.back()}, "band_gap")[0].value);
  }

  // --- 4. closed-loop load through the scheduler ----------------------------
  serve::SchedulerOptions opts;
  opts.max_batch_size = 32;
  opts.max_wait_us = 2000;
  opts.num_workers = 0;  // shared pool size (honors MATSCI_NUM_THREADS)
  serve::BatchScheduler scheduler(session, opts);
  std::printf("scheduler up: %lld workers, max_batch_size=%lld, "
              "max_wait_us=%lld\n",
              static_cast<long long>(scheduler.num_workers()),
              static_cast<long long>(opts.max_batch_size),
              static_cast<long long>(opts.max_wait_us));

  std::atomic<long long> correct{0}, incorrect{0}, dropped{0};
  obs::Histogram latency_us(obs::Histogram::default_latency_bounds_us());
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        const std::size_t idx = static_cast<std::size_t>(
            (c * per_client + i) % kPoolSize);
        serve::PushResult pushed = scheduler.try_submit(pool[idx], "band_gap");
        if (pushed.status != serve::PushStatus::kAccepted) {
          ++dropped;
          continue;
        }
        try {
          serve::PredictResult r = pushed.future.get();
          latency_us.observe(r.latency_us);
          if (r.prediction.value == reference[idx]) {
            ++correct;
          } else {
            ++incorrect;
          }
        } catch (...) {
          ++dropped;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  scheduler.shutdown();

  // --- 5. report ------------------------------------------------------------
  // Batch counts come from the scheduler's registry series; this
  // process runs one scheduler, so the global totals are its totals.
  const obs::HistogramSnapshot batches =
      obs::MetricsRegistry::global().histogram("serve.batch_size").snapshot();
  const obs::HistogramSnapshot lat = latency_us.snapshot();
  const long long total = static_cast<long long>(clients) * per_client;
  std::printf("\n=== closed-loop load: %d clients x %d requests ===\n",
              clients, per_client);
  std::printf("%-28s %lld / %lld\n", "correct responses",
              correct.load(), total);
  std::printf("%-28s %lld\n", "incorrect responses", incorrect.load());
  std::printf("%-28s %lld\n", "dropped requests", dropped.load());
  std::printf("%-28s %.0f structs/s\n", "throughput (wall)",
              static_cast<double>(total) / wall_s);
  std::printf("%-28s p50=%.0f p95=%.0f p99=%.0f max=%.0f\n",
              "latency (us)", lat.percentile(0.50), lat.percentile(0.95),
              lat.percentile(0.99), lat.max);
  std::printf("%-28s %.2f (over %lld micro-batches)\n", "mean batch size",
              batches.mean(), static_cast<long long>(batches.count));
  // max_batch_size sits below the last bound (256), so the overflow
  // slot stays empty.
  std::printf("batch-size histogram:\n");
  for (std::size_t i = 0; i < batches.bounds.size(); ++i) {
    if (batches.counts[i] == 0) continue;
    std::printf("  <=%3.0f: %lld\n", batches.bounds[i],
                static_cast<long long>(batches.counts[i]));
  }

  if (incorrect.load() != 0 || dropped.load() != 0) {
    std::printf("SERVING FAILED: responses dropped or incorrect\n");
    return 1;
  }
  std::printf("all %lld responses bit-exact against single-structure "
              "references\n",
              total);
  return 0;
}
