// perfbench_pacer: a fixed calibration kernel that runs next to a timed
// repetition and reports how fast this machine ran it meanwhile.
//
// It repeats a memory-bound loop (a 64K-entry binary heap of timestamps
// plus random read-modify-writes over an 8 MB table, the access pattern
// of a huge-N event scheduler) until its standard input reaches end of
// file, then prints the mean nanoseconds per loop iteration. It uses no
// simulator code, so a change to the simulator cannot move it; only the
// machine can. run.py divides a workload's times by it (see README.md).
#include <poll.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <vector>

namespace {

/// True once stdin is readable without blocking: EOF or input.
bool stop_requested() {
  pollfd p{0, POLLIN, 0};
  return poll(&p, 1, 0) > 0;
}

}  // namespace

int main() {
  std::uint64_t x = 88172645463325252ull;
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const auto unit = [&rnd] { return static_cast<double>(rnd() >> 11) * 0x1.0p-53; };
  std::priority_queue<double, std::vector<double>, std::greater<>> heap;
  std::vector<std::uint32_t> table(1u << 21);
  for (auto& v : table) v = static_cast<std::uint32_t>(rnd());
  for (int i = 0; i < 1 << 16; ++i) heap.push(unit());

  constexpr int kChunk = 50000;
  std::uint64_t acc = 0;
  std::uint64_t iterations = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (!stop_requested()) {
    for (int i = 0; i < kChunk; ++i) {
      const double t = heap.top();
      heap.pop();
      heap.push(t + unit());
      acc += table[(acc + rnd()) & (table.size() - 1)]++;
    }
    iterations += kChunk;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  // acc keeps the table updates observable to the optimizer.
  std::printf("{\"ns_per_iter\": %.6f, \"iterations\": %llu, \"check\": %llu}\n",
              iterations > 0 ? 1e9 * secs / static_cast<double>(iterations) : 0.0,
              static_cast<unsigned long long>(iterations),
              static_cast<unsigned long long>(acc & 0xff));
  return iterations > 0 ? 0 : 1;
}
