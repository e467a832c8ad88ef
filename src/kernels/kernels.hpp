#pragma once
/// \file kernels.hpp
/// Vectorized per-lane merge kernels with runtime ISA dispatch.
///
/// Algorithm 1's cost is dominated by the (|A|+|B|)/p steps of sequential
/// merge each lane runs after its diagonal search; merge_steps() decides
/// one element per iteration behind a data-dependent branch. This layer
/// replaces that loop — W outputs per step via an in-register bitonic
/// merge network (SSE4.2 4-wide / AVX2 8-wide / AVX-512 16-wide for
/// 32-bit keys, half that for 64-bit) — while keeping merge_steps() as
/// the byte-exact contract:
///
///   - Per vector step the kernel loads W keys from each cursor, counts
///     the A-side takes with the anti-diagonal rule
///     k = |{t : a[i+t] <= b[j+W-1-t]}| (the Merge Path diagonal
///     predicate, so the cursor advance equals the scalar kernel's
///     A-priority co-rank), and emits the sorted W smallest of the 2W
///     window. Keys are bare integers, so "the sorted W smallest" is
///     byte-identical to the scalar kernel's next W outputs.
///   - One step's next load waits on its take count, so a lone merge is
///     latency-bound. Every merge therefore runs as chains: the output
///     range is cut at kVectorChains - 1 Merge Path diagonals (Theorem
///     14; each cut is the unique A-priority co-rank, so bytes and
///     cursors do not depend on the cuts) and the chains advance side by
///     side, one step each per round (detail::chain_merge, the same body
///     the scalar chains of non-admitted types use). A step runs only
///     while its chain's windows both hold >= W keys and its slice >= W
///     outputs; a scalar step carries a chain over everything else —
///     tails, one side exhausted, the way into the next pair of a
///     merge-sort pass — and a merge shorter than kVectorChainedMinSteps
///     runs as one chain. No load ever touches memory outside a pair's
///     inputs.
///
/// Dispatch layers (docs/PERFORMANCE.md):
///   - compile time: use_vector_merge_v — the vector path exists only for
///     32/64-bit integral keys under std::less with contiguous iterators,
///     plus float/double keys under the opt-in TotalOrderLess comparator
///     (the IEEE totalOrder sign-flip bijection makes equal keys bitwise
///     identical again, which is what the byte-exactness proof needs).
///     Those merges take the selected kernel's chained merge:
///     merge_steps_auto through detail::vector_merge_steps (one merge),
///     merge_pass_auto through detail::vector_merge_pass (a whole
///     merge-sort pass, chains crossing pair boundaries). Payload merges
///     (KeyedRecord), custom comparators and floats under plain std::less
///     (equal floats need not be bitwise identical: -0.0/+0.0, and NaN
///     breaks strict weak order) take the same body with the scalar
///     mask-select step (detail::ScalarStep, width 1, A-priority stable
///     like merge_steps) when all three iterators are random access:
///     merge_steps_auto for calls of at least kChainedMinSteps steps,
///     merge_pass_auto for every pass; anything else runs merge_steps.
///     Their passes of width <= kParityMaxWidth (the records sort's 8-,
///     16-, 32- and 64-wide passes) first merge every whole group of
///     kParityPairs pairs as parity groups (detail::parity_group: each
///     pair walked forward from its starts and back from its ends, no
///     search), and run the chained body over the rest only.
///   - build time: -DMERGEPATH_SIMD=OFF compiles the ISA TUs out
///     (MP_SIMD=0), as a host without those ISAs needs.
///   - run time: cpuid (util/hw cpu_features()) picks the widest
///     supported kernel; set_kernel() (the harness/tool --kernel flag)
///     overrides it. Under the scalar kernel the admitted types run
///     merge_steps.
/// Nothing here counts operations; the PRAM model counts merge_steps.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/merge_path.hpp"
#include "core/sequential_merge.hpp"

#ifndef MP_SIMD
#define MP_SIMD 1
#endif

namespace mp::kernels {

/// True when the SIMD TUs are compiled in (MERGEPATH_SIMD=ON and the
/// toolchain accepted the target flags).
inline constexpr bool kSimdCompiledIn = MP_SIMD != 0;

/// The dispatchable per-lane merge kernels, narrowest to widest.
enum class Kernel : std::uint8_t {
  kScalar = 0,   ///< merge_steps(): branchy, one element per iteration
  kSse4,         ///< 4-wide (32-bit) / 2-wide (64-bit), needs SSE4.2
  kAvx2,         ///< 8-wide (32-bit) / 4-wide (64-bit), needs AVX2
  kAvx512,       ///< 16-wide (32-bit) / 8-wide (64-bit), needs AVX-512 F+BW
};

inline constexpr Kernel kAllKernels[] = {Kernel::kScalar, Kernel::kSse4,
                                         Kernel::kAvx2, Kernel::kAvx512};

/// True for the vector (width > 1) kernels — the ones whose selection
/// makes the wrapped-ring linearization copy in segmented_merge worth
/// paying for.
inline constexpr bool is_vector_kernel(Kernel kernel) {
  return kernel != Kernel::kScalar;
}

const char* to_string(Kernel kernel);

/// Every kernel name in kAllKernels order, '|'-separated
/// ("scalar|sse4|avx2|avx512"): the spelling usage and warning messages
/// quote.
const std::string& kernel_names();

/// kernel_names() entry -> Kernel; anything else -> nullopt.
std::optional<Kernel> parse_kernel(std::string_view name);

/// Whether `kernel` can actually run: compiled in AND the host ISA has it.
bool kernel_supported(Kernel kernel);

/// The widest supported kernel on this host/build (kScalar when the SIMD
/// TUs are compiled out or the host lacks SSE4.2 — the pre-dispatch
/// behavior, so MERGEPATH_SIMD=OFF builds are inert by default).
Kernel widest_supported();

/// The kernel merge_steps_auto() routes to: widest_supported() unless
/// set_kernel() chose another.
Kernel selected_kernel();

/// Forces the dispatch choice (--kernel flag). Returns false — leaving
/// the selection unchanged — when `kernel` is not supported here.
bool set_kernel(Kernel kernel);

/// One-line banner: "kernel avx2 (isa sse4.2+avx2)".
std::string kernel_banner();

namespace detail {

/// The IEEE-754 totalOrder sign-flip bijection: maps float bit patterns
/// to unsigned integers whose < order is exactly totalOrder(x, y) —
/// positive values get the sign bit set (shifting them above every
/// negative), negative values are bitwise complemented (reversing their
/// descending bit-pattern order). -NaN < -inf < ... < -0.0 < +0.0 < ...
/// < +inf < +NaN, with NaN payloads ordered by significand. The map is a
/// bijection, so totalOrder-equal keys are bitwise identical — the
/// property that lets float merges ride the integer vector kernels.
inline std::uint32_t total_order_key(float x) {
  const auto bits = std::bit_cast<std::uint32_t>(x);
  const auto mask =
      static_cast<std::uint32_t>(static_cast<std::int32_t>(bits) >> 31);
  return bits ^ (mask | 0x80000000u);
}
inline std::uint64_t total_order_key(double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  const auto mask =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(bits) >> 63);
  return bits ^ (mask | 0x8000000000000000ull);
}

}  // namespace detail

/// Opt-in total-order comparator: IEEE totalOrder for float/double
/// (strict weak — in fact total — even with NaNs and signed zeros, which
/// plain std::less is not), plain < for every other type. Merges and
/// small sorts invoked with this comparator on contiguous float/double
/// keys are admitted to the integer vector kernels via the sign-flip
/// bijection; everything about the byte-exactness contract carries over
/// because totalOrder-equal keys are bitwise identical.
struct TotalOrderLess {
  bool operator()(float x, float y) const {
    return detail::total_order_key(x) < detail::total_order_key(y);
  }
  bool operator()(double x, double y) const {
    return detail::total_order_key(x) < detail::total_order_key(y);
  }
  template <typename T>
  bool operator()(const T& x, const T& y) const {
    return x < y;
  }
};

namespace detail {

/// Register-resident run formation of `kernel` for one of the six
/// admitted key types (defined and explicitly instantiated in
/// dispatch.cpp, which routes to the per-ISA TUs): sorts every aligned
/// block of W keys of [data, data+n) in place, a short last block
/// included, and returns W — 16 registers' worth of keys, so 256 int32
/// under AVX-512 — or 0 without touching `data` when `kernel` has no
/// register sort here (scalar, compiled out). The float and
/// double sorts apply the sign-flip bijection on load and invert it
/// before the store, like the vector merges.
template <typename Key>
std::size_t simd_sort_runs(Kernel kernel, Key* data, std::size_t n);

/// The key an admitted T merges and sorts as in the vector kernels: float
/// and double as themselves, integers as the same-size, same-signedness
/// fixed-width type. The ISA TUs load through may_alias vector types, and
/// dispatch.cpp, which reads and writes keys as simd_key_t in the chained
/// merges, is compiled with -fno-strict-aliasing, so reinterpreting a T
/// buffer as its simd_key_t carries no TBAA hazard.
template <typename T>
using simd_key_t = std::conditional_t<
    std::is_floating_point_v<T>, T,
    std::conditional_t<
        sizeof(T) == 4,
        std::conditional_t<std::is_signed_v<T>, std::int32_t, std::uint32_t>,
        std::conditional_t<std::is_signed_v<T>, std::int64_t,
                           std::uint64_t>>>;

}  // namespace detail

/// Compile-time gate of the vector path. Evaluates to true only for the
/// byte-exactness-provable cases, through contiguous iterators on all
/// three sides:
///   - bare 32/64-bit integral keys (bool excluded) under std::less, and
///   - float/double keys under the opt-in TotalOrderLess comparator (the
///     total-order float mode: the sign-flip bijection makes equal keys
///     bitwise identical, restoring the integer argument).
/// Everything else — payload records, custom comparators, floats under
/// std::less — stays on the scalar kernel, where no payload can be
/// reordered across equal keys.
template <typename IterA, typename IterB, typename OutIter, typename Comp>
inline constexpr bool use_vector_merge_v = [] {
  if constexpr (std::contiguous_iterator<IterA> &&
                std::contiguous_iterator<IterB> &&
                std::contiguous_iterator<OutIter>) {
    using T = std::remove_cv_t<std::iter_value_t<OutIter>>;
    if constexpr (!std::is_same_v<std::remove_cv_t<std::iter_value_t<IterA>>,
                                  T> ||
                  !std::is_same_v<std::remove_cv_t<std::iter_value_t<IterB>>,
                                  T>) {
      return false;
    } else if constexpr (std::is_same_v<T, float> ||
                         std::is_same_v<T, double>) {
      return std::is_same_v<Comp, TotalOrderLess>;
    } else {
      return std::is_integral_v<T> && !std::is_same_v<T, bool> &&
             (sizeof(T) == 4 || sizeof(T) == 8) &&
             (std::is_same_v<Comp, std::less<>> ||
              std::is_same_v<Comp, std::less<T>>);
    }
  } else {
    return false;
  }
}();

namespace detail {

/// Independent merges the scalar chained loop interleaves: enough
/// load -> compare -> advance chains in flight to hide one chain's latency.
inline constexpr std::size_t kMergeChains = 4;

/// Shortest output range the scalar chained loop cuts into kMergeChains
/// slices; below it the kMergeChains - 1 diagonal searches cost more than
/// the overlap saves (measured crossover: 40-48 steps for 8-byte records).
/// merge_steps_auto hands shorter calls to merge_steps.
inline constexpr std::size_t kChainedMinSteps = 48;

/// Shortest output range a vector merge cuts into chains; shorter ranges
/// run as one chain. Below it the diagonal searches of the cuts cost more
/// than the interleaving saves (measured like kChainedMinSteps: the
/// crossover is 256 outputs for AVX-512 int32).
inline constexpr std::size_t kVectorChainedMinSteps = 256;

/// Whether the chained loop can take (IterA, IterB, OutIter): random
/// access on all three sides, and inputs that dereference to lvalues of
/// one element type, so a step can pick its source by address.
template <typename IterA, typename IterB, typename OutIter>
inline constexpr bool use_chained_merge_v = [] {
  if constexpr (std::random_access_iterator<IterA> &&
                std::random_access_iterator<IterB> &&
                std::random_access_iterator<OutIter>) {
    return std::is_lvalue_reference_v<std::iter_reference_t<IterA>> &&
           std::is_lvalue_reference_v<std::iter_reference_t<IterB>> &&
           std::is_same_v<std::iter_value_t<IterA>, std::iter_value_t<IterB>>;
  } else {
    return false;
  }
}();

/// y when `pick_y`, else x, computed with a mask: with kMergeChains
/// chains live the cursors spill, and the compiler turns a spilled
/// cursor's ternary back into a branch that mispredicts on every other
/// element.
template <typename T>
const T* select_address(bool pick_y, const T* x, const T* y) {
  const auto ux = reinterpret_cast<std::uintptr_t>(x);
  const auto uy = reinterpret_cast<std::uintptr_t>(y);
  const std::uintptr_t mask = std::uintptr_t{0} - pick_y;
  return reinterpret_cast<const T*>(ux ^ ((ux ^ uy) & mask));
}

/// One merge of a chained pass: a[0, m) with b[0, n) into the pass
/// outputs [base, base + m + n).
template <typename IterA, typename IterB>
struct ChainPair {
  IterA a;
  std::size_t m;
  IterB b;
  std::size_t n;
  std::size_t base;
};

/// The pairs of one bottom-up merge pass over src[0, n): pair t merges
/// the width-wide runs at 2·t·width and (2·t+1)·width; a trailing
/// unpaired run is a pair with an empty B.
template <typename T>
struct PassPairs {
  const T* src;
  std::size_t n;
  std::size_t width;
  ChainPair<const T*, const T*> at(std::size_t t) const {
    const std::size_t begin = 2 * width * t;
    const std::size_t mid = std::min(begin + width, n);
    const std::size_t end = std::min(begin + 2 * width, n);
    return {src + begin, mid - begin, src + mid, end - mid, begin};
  }
  /// The pair holding output g; the last pair for g == n.
  std::size_t find(std::size_t g) const {
    return std::min(g, n - 1) / (2 * width);
  }
};

/// A single merge seen as a one-pair pass.
template <typename IterA, typename IterB>
struct OnePair {
  ChainPair<IterA, IterB> pair;
  ChainPair<IterA, IterB> at(std::size_t) const { return pair; }
  std::size_t find(std::size_t) const { return 0; }
};

/// One chain's cursor: at (pa, pb) inside pair t, writing o, ending at oe.
template <typename IterA, typename IterB, typename OutIter>
struct ChainCursor {
  std::size_t t = 0;
  IterA pa{}, ae{};
  IterB pb{}, be{};
  OutIter o{}, oe{};
};

template <typename Pairs, typename Cursor>
void chain_enter(const Pairs& pairs, Cursor& c, std::size_t t, std::size_t i,
                 std::size_t j) {
  const auto p = pairs.at(t);
  c.t = t;
  c.pa = p.a + static_cast<std::ptrdiff_t>(i);
  c.ae = p.a + static_cast<std::ptrdiff_t>(p.m);
  c.pb = p.b + static_cast<std::ptrdiff_t>(j);
  c.be = p.b + static_cast<std::ptrdiff_t>(p.n);
}

/// The interleaved loop of the chained body. Advances chains ch[0, K) by
/// one Step::step each per round, Step::kWidth outputs per step, while
/// every chain has at least kWidth keys left on both sides of its pair and
/// kWidth outputs left in its slice, and returns once one of them has not.
/// Between checks it runs `safe` rounds, the fewest floor((ae - pa) / W),
/// floor((be - pb) / W) and floor((oe - o) / W) of any chain, so no step
/// reads past its pair's inputs even under a comparator that is not a
/// strict weak order. The rounds are unrolled over the chains, so their
/// cursors live in registers. Instantiated here for the scalar step and
/// in each ISA TU for its vector steps; the ISA TUs pass step types of
/// their own anonymous namespace, which gives those instantiations
/// internal linkage (no vector code can stand in for a baseline copy at
/// link time).
template <std::size_t K, typename Step, typename Cursor>
void chain_advance(Cursor* ch, Step& step) {
  constexpr auto W = static_cast<std::ptrdiff_t>(Step::kWidth);
  for (;;) {
    std::ptrdiff_t safe = (ch[0].oe - ch[0].o) / W;
    for (std::size_t k = 0; k < K; ++k)
      safe = std::min<std::ptrdiff_t>({safe, (ch[k].ae - ch[k].pa) / W,
                                       (ch[k].be - ch[k].pb) / W,
                                       (ch[k].oe - ch[k].o) / W});
    if (safe == 0) return;
    [&]<std::size_t... k>(std::index_sequence<k...>) {
      decltype(ch->pa) pa[] = {ch[k].pa...};
      decltype(ch->pb) pb[] = {ch[k].pb...};
      decltype(ch->o) o[] = {ch[k].o...};
      for (std::ptrdiff_t s = 0; s < safe; ++s)
        (step.step(pa[k], pb[k], o[k]), ...);
      ((ch[k].pa = pa[k], ch[k].pb = pb[k], ch[k].o = o[k]), ...);
    }(std::make_index_sequence<K>{});
  }
}

/// The scalar step policy of the chained body: one output per chain per
/// round, its source picked by address, ties taken from A (stability).
/// A step moves its chain's cursors itself.
template <typename Comp>
struct ScalarStep {
  static constexpr std::size_t kWidth = 1;
  static constexpr std::size_t kChains = kMergeChains;
  Comp comp;

  static constexpr std::size_t width() { return kWidth; }
  static constexpr std::size_t min_steps() { return kChainedMinSteps; }

  template <typename IterA, typename IterB, typename OutIter>
  void step(IterA& pa, IterB& pb, OutIter& o) {
    const auto& x = *pa;
    const auto& y = *pb;
    const bool take_b = comp(y, x);
    *o++ = *select_address(take_b, std::addressof(x), std::addressof(y));
    pb += take_b;
    pa += !take_b;
  }
  /// The step mirrored, for a walk back from a pair's ends: pa, pb and o
  /// point one past the last unread key of each side and the last
  /// unwritten output. It writes the larger key, B's on a tie, so equal
  /// keys keep merge_steps()'s order, and moves that side back by one.
  template <typename IterA, typename IterB, typename OutIter>
  void step_back(IterA& pa, IterB& pb, OutIter& o) {
    const auto& x = pa[-1];
    const auto& y = pb[-1];
    const bool take_a = comp(y, x);
    *--o = *select_address(take_a, std::addressof(y), std::addressof(x));
    pa -= take_a;
    pb -= !take_a;
  }
  template <std::size_t K, typename Cursor>
  void advance(Cursor* ch) {
    chain_advance<K>(ch, *this);
  }
};

/// Whether Step is the width-1 step, whose chains leave chain_advance()
/// only with a side of their pair used up or their slice done.
template <typename Step>
inline constexpr bool is_unit_step_v = false;
template <typename Comp>
inline constexpr bool is_unit_step_v<ScalarStep<Comp>> = true;

/// Moves chain `c` on alone, one output at a time, to its pair's end or
/// its slice's end, whichever comes first, and then into the next pair if
/// the slice goes on. A vector step's chain has fewer than W keys left on
/// a side or fewer than W outputs left: it runs the scalar step while
/// both sides hold keys (branch-free, so a tail does not mispredict). A
/// width-1 step's chain has a side used up. Either then copies the rest
/// of the other side. Outputs track inputs one for one, so a chain with
/// outputs left past its pair always has a next pair.
template <typename Pairs, typename Cursor, typename Step>
void chain_cross(const Pairs& pairs, Cursor& c, Step& step) {
  if constexpr (!is_unit_step_v<Step>) {
    const auto stop = c.o + std::min<std::ptrdiff_t>(
                                c.oe - c.o, (c.ae - c.pa) + (c.be - c.pb));
    ScalarStep<decltype(step.comp)&> one{step.comp};
    while (c.o != stop && c.pa != c.ae && c.pb != c.be)
      one.step(c.pa, c.pb, c.o);
  }
  if (c.pa == c.ae) {
    while (c.pb != c.be && c.o != c.oe) *c.o++ = *c.pb++;
  } else {
    while (c.pa != c.ae && c.o != c.oe) *c.o++ = *c.pa++;
  }
  if (c.o != c.oe) chain_enter(pairs, c, c.t + 1, 0, 0);
}

/// Merges the outputs [c.o, c.oe) of a pass, starting from cursor `c`,
/// as Step::kChains interleaved merges, and leaves `c` at the range's end
/// (`out` is output 0 of the pass). The one body of every chained merge:
/// `step` is ScalarStep (width 1) or an ISA's vector step over W-wide
/// windows (kernels/dispatch.cpp).
///
/// The range is cut into equal slices, one per chain, or kept whole when
/// it is shorter than step.min_steps(). Each slice start is the
/// A-priority co-rank of its output inside its pair
/// (path_point_on_diagonal, Theorem 14), which is unique, so the slices,
/// the bytes and the final cursor equal merge_steps()'s, pair by pair.
/// step.advance() runs the chains side by side (chain_advance). Between
/// its calls, a chain with fewer than W keys left on a side of its pair
/// or fewer than W outputs left in its slice moves on alone
/// (chain_cross()) to its pair's end or its slice's end, whichever comes
/// first, and into the next pair. When the first chain ends its slice the
/// others finish theirs: a rest of at least step.min_steps() is cut
/// again, a shorter one runs as one chain.
template <typename Pairs, typename Cursor, typename OutIter, typename Step>
void chain_merge(const Pairs& pairs, Cursor& c, OutIter out, Step& step);

/// The body of chain_merge() with K chains: the cuts, the interleaved
/// loop and the finish.
template <std::size_t K, typename Pairs, typename Cursor, typename OutIter,
          typename Step>
void chain_run(const Pairs& pairs, Cursor& c, OutIter out, Step& step) {
  const auto g0 = static_cast<std::size_t>(c.o - out);
  const auto len = static_cast<std::size_t>(c.oe - c.o);
  const auto W = static_cast<std::ptrdiff_t>(step.width());
  Cursor ch[K];
  for (std::size_t k = 0; k < K; ++k) {
    const std::size_t g = g0 + k * len / K;
    if (k == 0) {
      ch[k] = c;
    } else {
      const std::size_t t = pairs.find(g);
      const auto p = pairs.at(t);
      const PathPoint at = path_point_on_diagonal(p.a, p.m, p.b, p.n,
                                                  g - p.base, step.comp);
      chain_enter(pairs, ch[k], t, at.i, at.j);
      ch[k].o = out + static_cast<std::ptrdiff_t>(g);
    }
    ch[k].oe = out + static_cast<std::ptrdiff_t>(g0 + (k + 1) * len / K);
  }
  for (;;) {
    bool done = false;
    for (std::size_t k = 0; k < K; ++k) {
      Cursor& x = ch[k];
      if (x.o == x.oe)
        done = true;
      else if (x.ae - x.pa < W || x.be - x.pb < W || x.oe - x.o < W)
        chain_cross(pairs, x, step);
    }
    if (done) break;
    step.template advance<K>(ch);
  }
  if constexpr (K > 1)
    for (std::size_t k = 0; k < K; ++k) chain_merge(pairs, ch[k], out, step);
  c = ch[K - 1];
}

template <typename Pairs, typename Cursor, typename OutIter, typename Step>
void chain_merge(const Pairs& pairs, Cursor& c, OutIter out, Step& step) {
  if (static_cast<std::size_t>(c.oe - c.o) < step.min_steps())
    chain_run<1>(pairs, c, out, step);
  else
    chain_run<Step::kChains>(pairs, c, out, step);
}

/// Merges exactly `steps` outputs from (*a_pos, *b_pos): chain_merge over
/// the one pair that is the rest of the merge. Bytes and cursors equal
/// merge_steps()'s.
template <typename IterA, typename IterB, typename OutIter, typename Step>
OutIter chained_merge_steps(IterA a, std::size_t m, IterB b, std::size_t n,
                            std::size_t* a_pos, std::size_t* b_pos,
                            OutIter out, std::size_t steps, Step step) {
  MP_ASSERT(steps <= (m - *a_pos) + (n - *b_pos));
  const OnePair<IterA, IterB> pairs{
      {a + static_cast<std::ptrdiff_t>(*a_pos), m - *a_pos,
       b + static_cast<std::ptrdiff_t>(*b_pos), n - *b_pos, 0}};
  ChainCursor<IterA, IterB, OutIter> c;
  chain_enter(pairs, c, 0, 0, 0);
  c.o = out;
  c.oe = out + static_cast<std::ptrdiff_t>(steps);
  chain_merge(pairs, c, out, step);
  *a_pos += static_cast<std::size_t>(c.pa - pairs.pair.a);
  *b_pos += static_cast<std::size_t>(c.pb - pairs.pair.b);
  return c.o;
}

/// One bottom-up pass over src[0, n): the width-wide runs merged pairwise
/// into dst as one chain_merge over the whole pass, so every width keeps
/// all chains busy for chains - 1 diagonal searches per pass.
template <typename T, typename Step>
void chained_merge_pass(const T* src, T* dst, std::size_t n,
                        std::size_t width, Step step) {
  const PassPairs<T> pairs{src, n, width};
  ChainCursor<const T*, const T*, T*> c;
  chain_enter(pairs, c, 0, 0, 0);
  c.o = dst;
  c.oe = dst + n;
  chain_merge(pairs, c, dst, step);
}

/// Adjacent pairs one parity group merges side by side, two walks each:
/// 2·kParityPairs independent chains.
inline constexpr std::size_t kParityPairs = 4;

/// Widest pass whose whole parity groups merge_pass_auto runs in parity
/// form. Measured in L2 (bench_micro's BM_MergePassRecords,
/// docs/PERFORMANCE.md): the groups win up to width 64 and lose from 128,
/// where the chained loop leaves a pair rarely.
inline constexpr std::size_t kParityMaxWidth = 64;

/// Merges kParityPairs pairs of two width-wide runs each, src[0, 2·K·width)
/// into dst. By Theorem 14 a pair's merge path crosses the middle cross
/// diagonal once, so its first `width` outputs are `width` A-priority steps
/// forward from the runs' starts and its last `width` are `width` mirrored
/// steps back from their ends (ScalarStep::step_back, ties to B). The
/// 2·K walks do not depend on each other and need no search and no bound
/// check. Before its s-th read a walk has moved s < width places, so it
/// reads only inside its pair whatever the comparator answers.
template <typename T, typename Comp>
void parity_group(const T* src, T* dst, std::size_t width,
                  ScalarStep<Comp>& step) {
  [&]<std::size_t... k>(std::index_sequence<k...>) {
    const T* head_a[] = {src + 2 * k * width...};
    const T* head_b[] = {src + (2 * k + 1) * width...};
    T* head_o[] = {dst + 2 * k * width...};
    const T* tail_a[] = {src + (2 * k + 1) * width...};
    const T* tail_b[] = {src + (2 * k + 2) * width...};
    T* tail_o[] = {dst + (2 * k + 2) * width...};
    for (std::size_t s = 0; s < width; ++s)
      ((step.step(head_a[k], head_b[k], head_o[k]),
        step.step_back(tail_a[k], tail_b[k], tail_o[k])),
       ...);
  }(std::make_index_sequence<kParityPairs>{});
}

/// One bottom-up pass over src[0, n) into dst: every whole parity group
/// as parity_group() when width <= kParityMaxWidth, then the rest (a
/// partial last group, a short B, an unpaired run) as chained_merge_pass()
/// from the first output the groups did not write. Groups start at pair
/// boundaries, so the bytes are one merge_steps() per pair.
template <typename T, typename Comp>
void parity_merge_pass(const T* src, T* dst, std::size_t n, std::size_t width,
                       ScalarStep<Comp> step) {
  MP_ASSERT(width > 0);
  std::size_t done = 0;
  if (width <= kParityMaxWidth) {
    const std::size_t group = 2 * kParityPairs * width;
    for (; n - done >= group; done += group)
      parity_group(src + done, dst + done, width, step);
  }
  if (done < n)
    chained_merge_pass(src + done, dst + done, n - done, width, step);
}

/// The chained vector merge of `kernel` for one of the six admitted key
/// types (defined and explicitly instantiated in dispatch.cpp): exactly
/// `steps` outputs from (*a_pos, *b_pos), bytes and cursors equal to
/// merge_steps() under std::less (TotalOrderLess for float and double).
/// Returns false, touching nothing, when `kernel` has no vector merge here
/// (scalar, or its TU compiled out). The float and double steps apply the
/// sign-flip bijection on load, run the unsigned integer window merge and
/// invert it before the store.
template <typename Key>
bool vector_merge_steps(Kernel kernel, const Key* a, std::size_t m,
                        const Key* b, std::size_t n, std::size_t* a_pos,
                        std::size_t* b_pos, Key* out, std::size_t steps);

/// One bottom-up pass of `kernel` over src[0, n) into dst as one chained
/// vector merge (same types, contract and false return as
/// vector_merge_steps).
template <typename Key>
bool vector_merge_pass(Kernel kernel, const Key* src, Key* dst, std::size_t n,
                       std::size_t width);

}  // namespace detail

/// Drop-in replacement for merge_steps() at the wiring points: same
/// signature, same contract, byte-identical output and cursor updates.
/// Calls take the selected vector kernel's chained merge when the
/// compile-time trait admits the types. When it does not, calls of at
/// least kChainedMinSteps steps over iterators detail::use_chained_merge_v
/// admits take the scalar chained merge. Everything else is merge_steps().
template <typename IterA, typename IterB, typename OutIter,
          typename Comp = std::less<>>
OutIter merge_steps_auto(IterA a, std::size_t m, IterB b, std::size_t n,
                         std::size_t* a_pos, std::size_t* b_pos, OutIter out,
                         std::size_t steps, Comp comp = {}) {
  if constexpr (use_vector_merge_v<IterA, IterB, OutIter, Comp>) {
    if (steps > 0) {
      const Kernel kind = selected_kernel();
      using T = std::remove_cv_t<std::iter_value_t<OutIter>>;
      using Key = detail::simd_key_t<T>;
      if (kind != Kernel::kScalar &&
          detail::vector_merge_steps<Key>(
              kind, reinterpret_cast<const Key*>(std::to_address(a)), m,
              reinterpret_cast<const Key*>(std::to_address(b)), n, a_pos,
              b_pos, reinterpret_cast<Key*>(std::to_address(out)), steps))
        return out + static_cast<std::ptrdiff_t>(steps);
    }
  } else if constexpr (detail::use_chained_merge_v<IterA, IterB, OutIter>) {
    if (steps >= detail::kChainedMinSteps)
      return detail::chained_merge_steps(a, m, b, n, a_pos, b_pos, out, steps,
                                         detail::ScalarStep<Comp>{comp});
  }
  return merge_steps(a, m, b, n, a_pos, b_pos, out, steps, comp);
}

/// One pass of a bottom-up merge sort: merges the adjacent width-wide
/// runs of src[0, n) pairwise into dst (a trailing unpaired run is
/// copied). The pass runs as one chained merge: the selected vector
/// kernel's for types the vector trait admits, the scalar one for the
/// others, whose passes up to kParityMaxWidth wide run their whole parity
/// groups first (detail::parity_merge_pass). Admitted types under the
/// scalar kernel run one merge_steps() call per pair.
template <typename T, typename Comp = std::less<>>
void merge_pass_auto(const T* src, T* dst, std::size_t n, std::size_t width,
                     Comp comp = {}) {
  if constexpr (use_vector_merge_v<const T*, const T*, T*, Comp>) {
    using Key = detail::simd_key_t<T>;
    if (detail::vector_merge_pass<Key>(
            selected_kernel(), reinterpret_cast<const Key*>(src),
            reinterpret_cast<Key*>(dst), n, width))
      return;
    for (std::size_t begin = 0; begin < n; begin += 2 * width) {
      const std::size_t mid = std::min(begin + width, n);
      const std::size_t end = std::min(begin + 2 * width, n);
      std::size_t i = 0, j = 0;
      merge_steps(src + begin, mid - begin, src + mid, end - mid, &i, &j,
                  dst + begin, end - begin, comp);
    }
  } else {
    detail::parity_merge_pass(src, dst, n, width,
                              detail::ScalarStep<Comp>{comp});
  }
}

}  // namespace mp::kernels
