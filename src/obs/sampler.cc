#include "obs/sampler.hh"

#include <ostream>

#include "obs/sink.hh"
#include "sim/log.hh"

namespace bsched {

const char*
toString(SeriesKind kind)
{
    switch (kind) {
      case SeriesKind::Counter:
        return "counter";
      case SeriesKind::Gauge:
        return "gauge";
    }
    panic("unknown SeriesKind");
}

IntervalSampler::IntervalSampler(Cycle period)
    : clock_(period)
{
    if (period == 0)
        fatal("sampler: period must be > 0 cycles");
}

void
IntervalSampler::begin(Cycle now)
{
    if (!cycles_.empty()) {
        if (now <= cycles_.back())
            panic("sampler: begin(", now, ") not after previous sample at ",
                  cycles_.back());
        for (const auto& [name, series] : series_) {
            if (series.values.size() != cycles_.size())
                panic("sampler: series '", name,
                      "' missed a sample before begin()");
        }
    }
    cycles_.push_back(now);
    clock_.tick(now);
}

void
IntervalSampler::record(const std::string& name, double value,
                        SeriesKind kind)
{
    if (cycles_.empty())
        panic("sampler: record('", name, "') before begin()");
    SampleSeries& series = series_[name];
    if (series.values.empty())
        series.kind = kind;
    else if (series.kind != kind)
        panic("sampler: series '", name, "' changed kind mid-run");
    if (series.values.size() >= cycles_.size())
        panic("sampler: series '", name, "' recorded twice in one sample");
    // A series introduced late would misalign with the cycle axis.
    if (series.values.size() + 1 != cycles_.size())
        panic("sampler: series '", name, "' joined after the first sample");
    series.values.push_back(value);
}

std::vector<std::string>
IntervalSampler::names() const
{
    std::vector<std::string> out;
    out.reserve(series_.size());
    for (const auto& [name, series] : series_)
        out.push_back(name);
    return out;
}

const SampleSeries*
IntervalSampler::find(const std::string& name) const
{
    auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
}

double
IntervalSampler::last(const std::string& name, double fallback) const
{
    const SampleSeries* series = find(name);
    if (series == nullptr || series->values.empty())
        return fallback;
    return series->values.back();
}

std::vector<double>
IntervalSampler::deltas(const std::string& name) const
{
    const SampleSeries* series = find(name);
    if (series == nullptr)
        fatal("sampler: no series named '", name, "'");
    if (series->kind != SeriesKind::Counter)
        fatal("sampler: deltas() of gauge series '", name, "'");
    std::vector<double> out;
    out.reserve(series->values.size());
    double prev = 0.0;
    for (double v : series->values) {
        out.push_back(v - prev);
        prev = v;
    }
    return out;
}

void
IntervalSampler::writeCsv(std::ostream& os) const
{
    os << "cycle";
    for (const auto& [name, series] : series_)
        os << "," << name;
    os << "\n";
    for (std::size_t i = 0; i < cycles_.size(); ++i) {
        os << cycles_[i];
        for (const auto& [name, series] : series_) {
            os << ",";
            if (i < series.values.size())
                os << jsonNumber(series.values[i]);
        }
        os << "\n";
    }
}

} // namespace bsched
