// The rule catalog: one table entry per rule — id, family, severity, the
// one-line summary printed with findings, the waiver spelling, and the
// --explain paragraph. Adding a rule means adding an entry here and a
// Check* function in lint.cc.
#include "lqo-lint/lint.h"

namespace lqo::lint {
namespace {

const std::vector<Rule>& Catalog() {
  static const std::vector<Rule>* rules = new std::vector<Rule>{
      {"rand", "determinism", Severity::kError,
       "libc rand()/srand()/rand_r() is banned",
       "// lint: rand-ok(<reason>)",
       "The repo's core contract is bit-for-bit reproducibility across\n"
       "LQO_THREADS and across runs. libc rand() draws from hidden global\n"
       "state that is shared across threads and seeded out-of-band, so any\n"
       "call site silently couples results to scheduling and link order.\n"
       "Use lqo::Rng (src/common/rng.h), seeded explicitly at construction."},
      {"random-device", "determinism", Severity::kError,
       "std::random_device is banned (nondeterministic entropy)",
       "// lint: random-device-ok(<reason>)",
       "std::random_device reads hardware/OS entropy: two runs of the same\n"
       "binary produce different streams, which breaks the thread-invariance\n"
       "tests and makes benchmark numbers unreproducible. Seed lqo::Rng with\n"
       "an explicit constant (or a value plumbed through configuration)."},
      {"wall-clock", "determinism", Severity::kError,
       "wall-clock reads (time(), system_clock, localtime, ...) are banned",
       "// lint: wall-clock-ok(<reason>)",
       "time(), gettimeofday(), localtime()/gmtime() and\n"
       "std::chrono::system_clock observe the wall clock, so results depend\n"
       "on when the process runs. Seeding or branching on them is exactly\n"
       "the non-reproducibility Lehmann et al. catalog in learned-optimizer\n"
       "evaluations. steady_clock is fine for duration measurement; for\n"
       "seeds use explicit constants."},
      {"exec-policy", "determinism", Severity::kError,
       "std::execution parallel policies are banned outside the allowlist",
       "// lint: exec-policy-ok(<reason>)",
       "std::execution::par / par_unseq hand scheduling to the standard\n"
       "library, outside the deterministic ThreadPool substrate: reductions\n"
       "reassociate, worker counts ignore LQO_THREADS, and TSan sees a\n"
       "foreign thread pool. All parallelism must go through ParallelFor /\n"
       "ParallelMap (src/common/thread_pool.h), which are index-addressed\n"
       "and bit-for-bit identical at any thread count."},
      {"unordered-iter", "determinism", Severity::kError,
       "range-for over std::unordered_{map,set} without a waiver",
       "// lint: unordered-iter-ok(<reason>)",
       "Hash-container iteration order is unspecified: it varies across\n"
       "standard libraries, hash seeds, and insertion histories, so any\n"
       "result that folds over it (float accumulation, first-wins picks,\n"
       "output ordering) silently depends on bucket layout. This is the\n"
       "static twin of the dynamic thread-invariance tests. Either iterate\n"
       "in sorted key order, or — when the fold is provably order-free\n"
       "(e.g. exact integer counting) — waive the site with\n"
       "// lint: unordered-iter-ok(<reason>) on the for-line or the line\n"
       "above. The per-file pass sees declarations in the same file and in\n"
       "the paired header of a .cc; the whole-program pass additionally\n"
       "tracks members and `using X = std::unordered_*` aliases declared in\n"
       "any other translation unit, so iterating a member through a header\n"
       "alias from a distant .cc is reported too."},
      {"raw-thread", "concurrency", Severity::kError,
       "raw std::thread/std::async/detach()/thread_local outside the pool",
       "// lint: raw-thread-ok(<reason>)",
       "Every parallel site must run on the deterministic ThreadPool\n"
       "(src/common/thread_pool.*): raw std::thread, std::jthread,\n"
       "std::async, detach()ed threads and mutable thread_local state\n"
       "bypass LQO_THREADS, the nesting protocol, and the index-addressed\n"
       "result discipline that makes N-thread runs bit-identical to serial\n"
       "runs. std::thread::id / std::this_thread are fine (no spawning)."},
      {"parallel-reduction", "determinism", Severity::kError,
       "float/double += through a by-reference capture inside a ParallelFor/"
       "ParallelMap body",
       "// lint: parallel-reduction-ok(<reason>)",
       "Accumulating a captured double/float with += from inside a\n"
       "ParallelFor/ParallelMap body is a cross-task reduction: it is both a\n"
       "data race and — even if locked — a reassociation of floating-point\n"
       "additions whose result depends on scheduling, breaking the\n"
       "bit-for-bit thread-invariance contract. Reduce into index-addressed\n"
       "slots (out[i] = ...) and fold serially after the parallel region\n"
       "(cf. RandomForest::PredictBatchWithUncertainty), or — when the\n"
       "accumulation order is deterministic by construction — state it with\n"
       "a // ordered-reduction: comment on the site, or waive with\n"
       "// lint: parallel-reduction-ok(<reason>). The pass sees\n"
       "declarations in the same file and in the paired header of a .cc;\n"
       "locals declared inside the lambda body are exempt."},
      {"mutex-guards", "concurrency", Severity::kError,
       "std::mutex/std::shared_mutex member lacks a // guards: comment",
       "// lint: mutex-guards-ok(<reason>)",
       "Every mutex declaration must carry a // guards: comment (same line\n"
       "or the line above) naming the fields it protects, e.g.\n"
       "  std::mutex mutex_;  // guards: queue_, stop_\n"
       "This keeps the locking protocol reviewable and gives the Clang\n"
       "Thread Safety annotations (src/common/thread_annotations.h) a\n"
       "human-readable mirror. cf. CardinalityProvider::mutex_ in\n"
       "src/optimizer/cardinality_interface.h."},
      {"atomic-comment", "concurrency", Severity::kError,
       "std::atomic declaration lacks a comment stating its protocol",
       "// lint: atomic-comment-ok(<reason>)",
       "Atomics are lock-free shared state: without a stated protocol\n"
       "(what the counter means, why relaxed ordering is sound, who\n"
       "publishes / who observes) the next reader cannot tell a benign\n"
       "statistics counter from a synchronization flag. Put a comment on\n"
       "the declaration line or in the comment block directly above it,\n"
       "e.g.\n"
       "  std::atomic<uint64_t> hits_{0};  // relaxed: monotonic stat\n"
       "cf. InferenceCounters (src/ml/inference_stats.h)."},
      {"header-mutable-state", "concurrency", Severity::kError,
       "mutable namespace-scope state declared in a header",
       "// lint: header-mutable-state-ok(<reason>)",
       "A non-const static/inline variable at namespace scope in a header\n"
       "is shared mutable state with no owner and no lock: every includer\n"
       "can race on it, and its value makes results depend on call history.\n"
       "Move it behind a function in a .cc (cf. ThreadPool::Global()) or\n"
       "make it constexpr."},
      {"header-guard", "hygiene", Severity::kError,
       "header missing #ifndef/#define guard or #pragma once",
       "// lint: header-guard-ok(<reason>) (on line 1)",
       "Headers must open with an include guard (#ifndef X / #define X,\n"
       "matching macro) or #pragma once before any code. The repo\n"
       "convention is LQO_<PATH>_H_ guards."},
      {"hot-loop-growth", "hygiene", Severity::kError,
       "per-row push_back/emplace_back inside a nested loop of a hot-path "
       "file",
       "// lint: hot-loop-growth-ok(<reason>)",
       "Growing a container one element per row from inside a nested loop\n"
       "of a hot-path file (engine/, *kernel*) defeats the batched\n"
       "execution substrate: every call re-checks capacity, may reallocate\n"
       "mid-scan, and serializes the inner loop on the container's size\n"
       "bookkeeping. Batch kernels size the output once per batch and write\n"
       "through a raw pointer instead — gather survivors with GatherAppend /\n"
       "AppendContiguous (src/engine/vec_batch.h) or bulk insert() after the\n"
       "loop. Deliberate growth that is amortized rather than per-row (e.g.\n"
       "registering a first-seen group into reserved capacity) is waived\n"
       "with // lint: hot-loop-growth-ok(<reason>). Reference\n"
       "implementations for equality checks belong in tests/, not in hot\n"
       "files."},
      {"raw-intrinsics", "hygiene", Severity::kError,
       "raw SIMD intrinsics (immintrin.h/arm_neon.h, _mm*/v*q_) outside "
       "engine/simd.* and engine/agg_kernels.*",
       "// lint: raw-intrinsics-ok(<reason>)",
       "All explicit SIMD lives behind the dispatch layer in\n"
       "src/engine/simd.h: per-ISA kernels registered in a KernelTable,\n"
       "resolved once at runtime from CPU detection, with the scalar\n"
       "level as the bit-identical definitional reference. The\n"
       "aggregation kernels in src/engine/agg_kernels.* follow the same\n"
       "per-level table/ActiveLevel() discipline and are part of the\n"
       "dispatch layer. Intrinsic headers (<immintrin.h>, <arm_neon.h>,\n"
       "...) or intrinsic calls (_mm_/_mm256_/_mm512_/vld1q_...) anywhere\n"
       "else bypass that contract: the code compiles only on one ISA,\n"
       "dodges the per-level bit-equality tests, and cannot be A/B'd\n"
       "against the scalar reference with simd::SetLevelForTest. Add a\n"
       "kernel to one of the dispatch tables instead, or waive a\n"
       "deliberate exception with // lint: raw-intrinsics-ok(<reason>)."},
      {"using-namespace-header", "hygiene", Severity::kError,
       "using namespace at header scope",
       "// lint: using-namespace-header-ok(<reason>)",
       "`using namespace` in a header leaks the namespace into every\n"
       "translation unit that includes it, producing spooky overload\n"
       "changes at a distance. Qualify names instead."},
      {"lock-discipline", "concurrency", Severity::kError,
       "guarded member used without the named mutex lexically held",
       "// locked-by: <mutex>(<reason>)  (or // lint: lock-discipline-ok(...))",
       "A // guards: comment (or LQO_GUARDED_BY attribute) is a contract,\n"
       "not documentation: every use of the listed member inside a method\n"
       "body must be lexically preceded, in an enclosing scope, by a lock\n"
       "acquisition on the named mutex — a std::lock_guard / unique_lock /\n"
       "shared_lock / scoped_lock naming it, or a manual .lock(). Methods\n"
       "annotated LQO_REQUIRES(mutex) (on the in-class declaration or the\n"
       "definition) are checked as if the lock were held throughout. This\n"
       "is the guarded-member-touched-without-lock class of race that TSan\n"
       "only catches when a test happens to hit the interleaving. Sites\n"
       "that are safe without the lock (e.g. after every other thread that\n"
       "could reach the member has been joined) are waived in place with\n"
       "// locked-by: <mutex>(<reason>), which names the protocol that\n"
       "makes the bare access sound."},
      {"layering", "hygiene", Severity::kError,
       "#include edge forbidden by the src/ layering DAG",
       "// lint: layering-ok(<reason>)",
       "src/ layers form a declarative DAG (the LayerDag() table in\n"
       "tools/lqo-lint/rules.cc): common is the base everything may use;\n"
       "storage/query/engine/ml sit in the middle; optimizer and the model\n"
       "layers build on them; serving/e2e/regression/pilotscope are the\n"
       "top. Lower layers must never include upper ones — engine, ml and\n"
       "storage must not include serving, e2e or pilotscope — or builds\n"
       "grow hidden cycles and the serving substrate leaks into kernels.\n"
       "Violations name the offending edge. Extending the DAG is a\n"
       "reviewed edit to the table, not a waiver."},
  };
  return *rules;
}

// The declarative layering DAG over src/. A layer may include itself plus
// the listed layers (transitive closure spelled out, so the check is a flat
// membership test). Directories not listed are unconstrained.
const std::vector<LayerSpec>& Dag() {
  static const std::vector<LayerSpec>* dag = new std::vector<LayerSpec>{
      {"common", {}},
      {"storage", {"common"}},
      {"query", {"common", "storage"}},
      {"engine", {"common", "storage", "query"}},
      {"ml", {"common"}},
      {"optimizer", {"common", "storage", "query", "engine", "ml"}},
      {"costmodel",
       {"common", "storage", "query", "engine", "ml", "optimizer"}},
      {"cardinality",
       {"common", "storage", "query", "engine", "ml", "optimizer"}},
      {"joinorder",
       {"common", "storage", "query", "engine", "ml", "optimizer"}},
      {"e2e",
       {"common", "storage", "query", "engine", "ml", "optimizer",
        "costmodel", "cardinality", "joinorder"}},
      {"regression",
       {"common", "storage", "query", "engine", "ml", "optimizer",
        "costmodel", "cardinality", "joinorder", "e2e"}},
      {"serving",
       {"common", "storage", "query", "engine", "ml", "optimizer",
        "costmodel", "cardinality", "joinorder", "e2e"}},
      {"pilotscope",
       {"common", "storage", "query", "engine", "ml", "optimizer",
        "costmodel", "cardinality", "joinorder", "e2e", "serving"}},
      {"benchlib",
       {"common", "storage", "query", "engine", "ml", "optimizer",
        "costmodel", "cardinality", "joinorder", "e2e", "regression",
        "serving", "pilotscope"}},
  };
  return *dag;
}

}  // namespace

const std::vector<Rule>& Rules() { return Catalog(); }

const Rule* FindRule(std::string_view id) {
  for (const Rule& r : Catalog()) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

const std::vector<LayerSpec>& LayerDag() { return Dag(); }

const LayerSpec* FindLayer(std::string_view name) {
  for (const LayerSpec& layer : Dag()) {
    if (layer.name == name) return &layer;
  }
  return nullptr;
}

}  // namespace lqo::lint
