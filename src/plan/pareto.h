/**
 * @file
 * Pareto-front extraction over (memory, time) points (paper §4.3):
 * a plan stays on the front iff no other plan is both at most as
 * large and at most as slow (with one strict).
 */
#ifndef ELK_PLAN_PARETO_H
#define ELK_PLAN_PARETO_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace elk::plan {

/**
 * Returns the Pareto-optimal subset of @p points, sorted by
 * *descending* memory (i.e., ascending time): index 0 is the fastest
 * (largest) plan, the last index the smallest (slowest) plan. This is
 * the walk order of the §4.3 greedy allocator.
 *
 * @param points  candidate set.
 * @param mem_of  functor T -> uint64_t memory footprint.
 * @param time_of functor T -> double time cost.
 */
template <typename T, typename MemFn, typename TimeFn>
std::vector<T>
pareto_front(std::vector<T> points, MemFn mem_of, TimeFn time_of)
{
    if (points.empty()) {
        return points;
    }
    // Sort compact (memory, time, index) keys rather than the points.
    // The comparator reads only memory and time, exactly as a sort of
    // the points would, so std::sort makes the same comparisons and
    // applies the same permutation: equal points keep the same order.
    struct Key {
        uint64_t mem;
        double time;
        size_t index;
    };
    std::vector<Key> keys(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        keys[i] = {mem_of(points[i]), time_of(points[i]), i};
    }
    // Sort by memory ascending, time ascending for ties.
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
        if (a.mem != b.mem) {
            return a.mem < b.mem;
        }
        return a.time < b.time;
    });
    // Sweep: keep a point iff it is strictly faster than everything
    // smaller or equal that we already kept.
    std::vector<size_t> kept;
    double best_time = std::numeric_limits<double>::infinity();
    for (const Key& k : keys) {
        if (k.time < best_time) {
            best_time = k.time;
            kept.push_back(k.index);
        }
    }
    // Descending memory == ascending time.
    std::vector<T> front;
    front.reserve(kept.size());
    for (auto it = kept.rbegin(); it != kept.rend(); ++it) {
        front.push_back(std::move(points[*it]));
    }
    return front;
}

}  // namespace elk::plan

#endif  // ELK_PLAN_PARETO_H
