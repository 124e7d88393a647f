#pragma once

/// Umbrella header for the inference-serving subsystem: checkpoint ->
/// InferenceSession (eval-mode, grad-free forward) -> BatchScheduler
/// (bounded thread-safe RequestQueue with priority classes and SLO
/// deadlines, dynamic micro-batching, worker pool) -> per-request
/// futures, counted in the obs registry (serve.requests, serve.batches,
/// serve.batch_size, serve.stage.*, serve.deadline_drops) — and,
/// layered on top, the production frontend (serve/frontend/): versioned
/// model registry with atomic hot-swap, admission control with load
/// shedding and retry-after, and a canonicalized-structure response
/// cache. See the "Serving" sections of README.md / DESIGN.md §8 for
/// the flush policy, the admission state machine, and the tensor-core
/// thread-safety contract this stack relies on.

#include "serve/frontend/admission.hpp"  // IWYU pragma: export
#include "serve/frontend/cache.hpp"      // IWYU pragma: export
#include "serve/frontend/frontend.hpp"   // IWYU pragma: export
#include "serve/frontend/registry.hpp"   // IWYU pragma: export
#include "serve/queue.hpp"               // IWYU pragma: export
#include "serve/scheduler.hpp"           // IWYU pragma: export
#include "serve/session.hpp"             // IWYU pragma: export
