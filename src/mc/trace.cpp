#include "mc/trace.hpp"

#include <charconv>
#include <sstream>
#include <string_view>

namespace graybox::mc {

namespace {

/// The whole token as a decimal unsigned value that fits T; no sign, no
/// trailing characters.
template <typename T>
bool parse(std::string_view token, T& out) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::string ScheduleTrace::to_text() const {
  std::ostringstream out;
  out << "graybox-mc-trace v1\n";
  out << "seed " << seed << "\n";
  if (!choices.empty()) {
    out << "choices";
    for (std::uint32_t c : choices) out << " " << c;
    out << "\n";
  }
  for (const FaultAt& f : faults) {
    out << "fault " << f.at_event << " " << unsigned{f.fault.code} << " "
        << f.fault.a << " " << f.fault.b << " " << f.fault.index << " "
        << f.fault.index2 << " " << f.fault.mask << "\n";
  }
  return out.str();
}

std::optional<ScheduleTrace> ScheduleTrace::from_text(
    const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header) || header != "graybox-mc-trace v1")
    return std::nullopt;
  ScheduleTrace trace;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;
    if (tok[0] == "seed") {
      if (tok.size() != 2 || !parse(tok[1], trace.seed)) return std::nullopt;
    } else if (tok[0] == "choices") {
      for (std::size_t i = 1; i < tok.size(); ++i) {
        std::uint32_t c;
        if (!parse(tok[i], c)) return std::nullopt;
        trace.choices.push_back(c);
      }
    } else if (tok[0] == "fault") {
      FaultAt f;
      if (tok.size() != 8 || !parse(tok[1], f.at_event) ||
          !parse(tok[2], f.fault.code) || !parse(tok[3], f.fault.a) ||
          !parse(tok[4], f.fault.b) || !parse(tok[5], f.fault.index) ||
          !parse(tok[6], f.fault.index2) || !parse(tok[7], f.fault.mask) ||
          f.fault.code >= net::kFaultCodeCount)
        return std::nullopt;
      trace.faults.push_back(f);
    } else {
      return std::nullopt;
    }
  }
  return trace;
}

}  // namespace graybox::mc
