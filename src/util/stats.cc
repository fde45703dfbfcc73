#include "util/stats.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/json.hh"

namespace ipref
{

namespace
{

/** Descriptions may contain newlines; keep each stat on one line. */
std::string
sanitizeDesc(const std::string &desc)
{
    std::string out;
    out.reserve(desc.size());
    for (char c : desc) {
        if (c == '\n' || c == '\r')
            out += ' ';
        else
            out += c;
    }
    return out;
}

void
emitLine(std::ostream &os, const std::string &name,
         const std::string &value, const std::string &desc,
         std::size_t nameWidth)
{
    os << std::left << std::setw(static_cast<int>(nameWidth)) << name
       << " " << value;
    if (!desc.empty())
        os << "  # " << sanitizeDesc(desc);
    os << "\n";
}

} // namespace

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? name_ : prefix + "." + name_;

    // Align values within the group: pad names to the widest.
    std::size_t width = 0;
    for (const auto &c : counters_)
        width = std::max(width, full.size() + 1 + c.name.size());
    for (const auto &f : formulas_)
        width = std::max(width, full.size() + 1 + f.name.size());
    for (const auto &h : histograms_)
        width = std::max(width,
                         full.size() + 1 + h.name.size() + 5);

    for (const auto &c : counters_)
        emitLine(os, full + "." + c.name,
                 std::to_string(c.counter->value()), c.desc, width);
    for (const auto &f : formulas_) {
        std::ostringstream val;
        val << std::setprecision(6) << f.fn();
        emitLine(os, full + "." + f.name, val.str(), f.desc, width);
    }
    for (const auto &h : histograms_) {
        const Log2Histogram &hist = *h.hist;
        std::string base = full + "." + h.name;
        emitLine(os, base + ".count",
                 std::to_string(hist.count()), h.desc, width);
        std::ostringstream mean;
        mean << std::setprecision(6) << hist.mean();
        emitLine(os, base + ".mean", mean.str(), "", width);
        emitLine(os, base + ".max", std::to_string(hist.max()), "",
                 width);
        emitLine(os, base + ".p50",
                 std::to_string(hist.quantile(0.5)), "", width);
        emitLine(os, base + ".p90",
                 std::to_string(hist.quantile(0.9)), "", width);
    }
    for (const auto *child : children_)
        child->dump(os, full);
}

void
StatGroup::dumpJson(std::ostream &os, int indent) const
{
    std::string pad(static_cast<std::size_t>(indent), ' ');
    std::string pad2(static_cast<std::size_t>(indent) + 2, ' ');
    std::string pad4(static_cast<std::size_t>(indent) + 4, ' ');

    os << "{\n" << pad2 << "\"stats\": {";
    bool first = true;
    for (const auto &c : counters_) {
        os << (first ? "\n" : ",\n") << pad4
           << jsonString(c.name) << ": " << c.counter->value();
        first = false;
    }
    for (const auto &f : formulas_) {
        os << (first ? "\n" : ",\n") << pad4
           << jsonString(f.name) << ": " << jsonNumber(f.fn());
        first = false;
    }
    for (const auto &h : histograms_) {
        const Log2Histogram &hist = *h.hist;
        os << (first ? "\n" : ",\n") << pad4
           << jsonString(h.name) << ": {\"count\": " << hist.count()
           << ", \"sum\": " << hist.sum()
           << ", \"mean\": " << jsonNumber(hist.mean())
           << ", \"max\": " << hist.max()
           << ", \"p50\": " << hist.p50()
           << ", \"p90\": " << hist.quantile(0.9)
           << ", \"p95\": " << hist.p95()
           << ", \"p99\": " << hist.p99() << "}";
        first = false;
    }
    if (!first)
        os << "\n" << pad2;
    os << "}";

    if (!children_.empty()) {
        os << ",\n" << pad2 << "\"children\": {";
        bool firstChild = true;
        for (const auto *child : children_) {
            os << (firstChild ? "\n" : ",\n") << pad4
               << jsonString(child->name()) << ": ";
            child->dumpJson(os, indent + 4);
            firstChild = false;
        }
        os << "\n" << pad2 << "}";
    }
    os << "\n" << pad << "}";
}

void
StatGroup::resetAll()
{
    for (auto &c : counters_)
        c.counter->reset();
    for (auto &h : histograms_)
        h.hist->reset();
    for (auto *child : children_)
        child->resetAll();
}

void
StatGroup::forEachCounter(const CounterVisitor &fn,
                          const std::string &prefix) const
{
    std::string full = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &c : counters_)
        fn(full + "." + c.name, *c.counter, c.desc);
    for (const auto *child : children_)
        child->forEachCounter(fn, full);
}

} // namespace ipref
