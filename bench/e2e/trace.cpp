#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace adpm::bench {

std::vector<double> spanMicros(const SpanSet& set, const std::string& name) {
  std::vector<double> out;
  for (const SpanBuffer& buffer : set) {
    for (const Span& span : buffer.spans()) {
      if (name == span.name) out.push_back(microsBetween(span.start, span.end));
    }
  }
  return out;
}

double counterTotal(const SpanSet& set, const std::string& name) {
  double total = 0.0;
  for (const SpanBuffer& buffer : set) {
    const auto it = buffer.counters().find(name);
    if (it != buffer.counters().end()) total += it->second;
  }
  return total;
}

std::map<std::pair<std::uint32_t, std::uint32_t>, double> microsByRequest(
    const SpanSet& set, const std::string& name) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> out;
  for (const SpanBuffer& buffer : set) {
    for (const Span& span : buffer.spans()) {
      if (name == span.name) {
        out[{span.session, span.stage}] += microsBetween(span.start, span.end);
      }
    }
  }
  return out;
}

void writeSpans(const std::string& path, const SpanSet& set,
                Clock::time_point origin) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) throw std::runtime_error("cannot write span file '" + path + "'");
  std::FILE* f = file.get();

  std::map<std::string, std::size_t> ids;
  std::vector<const char*> names;
  for (const SpanBuffer& buffer : set) {
    for (const Span& span : buffer.spans()) {
      if (ids.emplace(span.name, names.size()).second) {
        names.push_back(span.name);
      }
    }
  }
  std::fprintf(f, "{\"origin\":\"steady_clock\",\"names\":[");
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? "," : "", names[i]);
  }
  std::fprintf(f, "],\n\"spans\":[");
  const auto ns = [origin](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count());
  };
  bool first = true;
  std::size_t bufferIndex = 0;
  for (const SpanBuffer& buffer : set) {
    for (const Span& span : buffer.spans()) {
      const long long parent =
          span.parent == SpanBuffer::kNoParent ? -1 : span.parent;
      std::fprintf(f, "%s\n[%zu,%zu,%lld,%u,%u,%lld,%lld]", first ? "" : ",",
                   bufferIndex, ids.at(span.name), parent, span.session,
                   span.stage, ns(span.start), ns(span.end));
      first = false;
    }
    ++bufferIndex;
  }
  std::fprintf(f, "\n]}\n");
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(file.release()) != 0 || failed) {
    throw std::runtime_error("write error on span file '" + path + "'");
  }
}

}  // namespace adpm::bench
