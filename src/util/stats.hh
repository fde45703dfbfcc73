/**
 * @file
 * Statistics package: named scalar counters, derived formulas and
 * latency histograms collected into groups, with aligned text and
 * machine-readable JSON dump support plus recursive reset (warm-up /
 * measurement delta collection).
 *
 * Modeled (loosely) on gem5's stats: a component owns a StatGroup,
 * registers counters at construction, and the simulation driver dumps
 * everything at the end of a run.
 */

#ifndef IPREF_UTIL_STATS_HH
#define IPREF_UTIL_STATS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "util/histogram.hh"

namespace ipref
{

/** A single monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }

    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A named collection of counters, derived values and histograms.
 *
 * Groups can nest; dump() prints "prefix.name value" lines and
 * dumpJson() emits one nested JSON object for the whole tree.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a counter under @p name; the counter must outlive us. */
    void
    addCounter(std::string name, Counter *c, std::string desc = "")
    {
        counters_.push_back({std::move(name), c, std::move(desc)});
    }

    /** Register a derived value computed at dump time. */
    void
    addFormula(std::string name, std::function<double()> fn,
               std::string desc = "")
    {
        formulas_.push_back({std::move(name), std::move(fn),
                             std::move(desc)});
    }

    /** Register a histogram; dumped as count/mean/max/p50/p90. */
    void
    addHistogram(std::string name, Log2Histogram *h,
                 std::string desc = "")
    {
        histograms_.push_back({std::move(name), h, std::move(desc)});
    }

    /** Attach a child group (not owned). */
    void addChild(StatGroup *child) { children_.push_back(child); }

    /** Print all stats as aligned "prefix.name  value  # desc" lines. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Emit the group as one JSON object:
     *   {"stats": {name: value, ...}, "children": {name: {...}}}
     * Histograms render as {"count","sum","mean","max","p50","p90"}.
     */
    void dumpJson(std::ostream &os, int indent = 0) const;

    /** Recursively reset every registered counter and histogram. */
    void resetAll();

    /** Visitor over counters: (dotted path, counter, description). */
    using CounterVisitor = std::function<void(
        const std::string &, const Counter &, const std::string &)>;

    /**
     * Call @p fn for every counter in the tree, depth-first in
     * registration order. Paths are rooted at this group's name and
     * match the dump() line names ("system.core.0.committed").
     */
    void forEachCounter(const CounterVisitor &fn,
                        const std::string &prefix = "") const;

    const std::string &name() const { return name_; }

  private:
    struct NamedCounter
    {
        std::string name;
        Counter *counter;
        std::string desc;
    };
    struct NamedFormula
    {
        std::string name;
        std::function<double()> fn;
        std::string desc;
    };
    struct NamedHistogram
    {
        std::string name;
        Log2Histogram *hist;
        std::string desc;
    };

    std::string name_;
    std::vector<NamedCounter> counters_;
    std::vector<NamedFormula> formulas_;
    std::vector<NamedHistogram> histograms_;
    std::vector<StatGroup *> children_;
};

} // namespace ipref

#endif // IPREF_UTIL_STATS_HH
