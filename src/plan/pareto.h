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
#include <iterator>
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

/**
 * Streaming form of pareto_front: points are offered one at a time
 * and only the current front is kept, sorted by ascending memory (and
 * so strictly descending time). An offered point is dropped when a
 * kept point is at most as large and at most as slow; otherwise it is
 * inserted at its binary-searched position and the contiguous run of
 * kept points it dominates is erased. Points whose time is not below
 * infinity are dropped, as pareto_front's sweep drops them.
 *
 * Exact ties are the one case where the result depends on more than
 * the point set: pareto_front keeps whichever of two equal (memory,
 * time) points std::sort puts first, which this class cannot know.
 * The first such point offered is kept and flagged; has_twin() says
 * whether any flagged point is still on the front, in which case the
 * caller must run pareto_front over the points in their original
 * order to get its survivor. Without a twin on the front, front() is
 * exactly pareto_front's result.
 */
template <typename T>
class ParetoSkyline {
  public:
    /// Offers @p value at (@p mem, @p time).
    void
    offer(uint64_t mem, double time, const T& value)
    {
        if (!(time < std::numeric_limits<double>::infinity())) {
            return;
        }
        // First kept point at least as large as the offer.
        auto it = std::lower_bound(
            points_.begin(), points_.end(), mem,
            [](const Point& p, uint64_t m) { return p.mem < m; });
        // The largest smaller point is the fastest smaller one.
        if (it != points_.begin() && std::prev(it)->time <= time) {
            return;
        }
        if (it != points_.end() && it->mem == mem && it->time <= time) {
            it->twin |= it->time == time;
            return;
        }
        // The offer dominates every kept point from it on that is at
        // least as slow: a contiguous run, times strictly descending.
        auto end = it;
        while (end != points_.end() && end->time >= time) {
            ++end;
        }
        if (it == end) {
            points_.insert(it, Point{mem, time, false, value});
        } else {
            *it = Point{mem, time, false, value};
            points_.erase(it + 1, end);
        }
    }

    /// True when a kept point tied exactly with a dropped one.
    bool
    has_twin() const
    {
        return std::any_of(points_.begin(), points_.end(),
                           [](const Point& p) { return p.twin; });
    }

    /// The front in pareto_front's order: descending memory.
    std::vector<T>
    front() const
    {
        std::vector<T> out;
        out.reserve(points_.size());
        for (auto it = points_.rbegin(); it != points_.rend(); ++it) {
            out.push_back(it->value);
        }
        return out;
    }

  private:
    struct Point {
        uint64_t mem;
        double time;
        bool twin;
        T value;
    };
    std::vector<Point> points_;
};

}  // namespace elk::plan

#endif  // ELK_PLAN_PARETO_H
