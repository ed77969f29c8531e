#include "cdr/config_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <sstream>

#include "support/error.hpp"
#include "support/text.hpp"

namespace stocdr::cdr {

namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0, end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::size_t parse_size(const std::string& value, const std::string& key) {
  return stocdr::parse_size(value, "config key '" + key + "'");
}

double parse_double(const std::string& value, const std::string& key) {
  return stocdr::parse_double(value, "config key '" + key + "'");
}

}  // namespace

std::string to_text(const CdrConfig& config) {
  std::ostringstream os;
  os.precision(17);
  os << "# stocdr CDR operating point\n"
     << "# discretization\n"
     << "phase_points = " << config.phase_points << '\n'
     << "vco_phases = " << config.vco_phases << '\n'
     << "# loop\n"
     << "filter_type = "
     << (config.filter_type == FilterType::kUpDownCounter ? "counter"
                                                          : "vote")
     << '\n'
     << "counter_length = " << config.counter_length << '\n'
     << "pd_dead_zone = " << config.pd_dead_zone << '\n'
     << "# data statistics\n"
     << "transition_density = " << config.transition_density << '\n'
     << "max_run_length = " << config.max_run_length << '\n'
     << "# noise (UI)\n"
     << "sigma_nw = " << config.sigma_nw << '\n'
     << "nr_mean = " << config.nr_mean << '\n'
     << "nr_max = " << config.nr_max << '\n'
     << "nr_atoms = " << config.nr_atoms << '\n'
     << "pd_noise_mode = "
     << (config.pd_noise_mode == PdNoiseMode::kExactGaussian ? "exact"
                                                             : "discretized")
     << '\n'
     << "nw_atoms = " << config.nw_atoms << '\n'
     << "# sinusoidal jitter\n"
     << "sj_amplitude = " << config.sj_amplitude << '\n'
     << "sj_period = " << config.sj_period << '\n'
     << "# boundary\n"
     << "boundary = "
     << (config.boundary == BoundaryMode::kWrap ? "wrap" : "saturate")
     << '\n';
  return os.str();
}

CdrConfig config_from_text(std::istream& in) {
  CdrConfig config;
  std::string line;
  std::size_t line_number = 0;
  // First occurrence of each key, so a duplicate can be rejected naming
  // both lines.  A silent last-wins here once masked a typo'd operating
  // point for a whole sweep.
  std::map<std::string, std::size_t> first_seen;
  while (std::getline(in, line)) {
    ++line_number;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const std::size_t eq = trimmed.find('=');
    STOCDR_REQUIRE(eq != std::string::npos,
                   "config: line " + std::to_string(line_number) +
                       " is not 'key = value': " + trimmed);
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    STOCDR_REQUIRE(!key.empty() && !value.empty(),
                   "config: empty key or value on line " +
                       std::to_string(line_number));
    const auto [it, inserted] = first_seen.emplace(key, line_number);
    if (!inserted) {
      throw PreconditionError("config: duplicate key '" + key + "' on line " +
                              std::to_string(line_number) +
                              " (first set on line " +
                              std::to_string(it->second) + ")");
    }

    if (key == "phase_points") {
      config.phase_points = parse_size(value, key);
    } else if (key == "vco_phases") {
      config.vco_phases = parse_size(value, key);
    } else if (key == "counter_length") {
      config.counter_length = parse_size(value, key);
    } else if (key == "filter_type") {
      if (value == "counter") {
        config.filter_type = FilterType::kUpDownCounter;
      } else if (value == "vote") {
        config.filter_type = FilterType::kMajorityVote;
      } else {
        throw PreconditionError("config: filter_type must be counter|vote");
      }
    } else if (key == "pd_dead_zone") {
      config.pd_dead_zone = parse_double(value, key);
    } else if (key == "transition_density") {
      config.transition_density = parse_double(value, key);
    } else if (key == "max_run_length") {
      config.max_run_length = parse_size(value, key);
    } else if (key == "sigma_nw") {
      config.sigma_nw = parse_double(value, key);
    } else if (key == "nr_mean") {
      config.nr_mean = parse_double(value, key);
    } else if (key == "nr_max") {
      config.nr_max = parse_double(value, key);
    } else if (key == "nr_atoms") {
      config.nr_atoms = parse_size(value, key);
    } else if (key == "pd_noise_mode") {
      if (value == "exact") {
        config.pd_noise_mode = PdNoiseMode::kExactGaussian;
      } else if (value == "discretized") {
        config.pd_noise_mode = PdNoiseMode::kDiscretized;
      } else {
        throw PreconditionError(
            "config: pd_noise_mode must be exact|discretized");
      }
    } else if (key == "nw_atoms") {
      config.nw_atoms = parse_size(value, key);
    } else if (key == "sj_amplitude") {
      config.sj_amplitude = parse_double(value, key);
    } else if (key == "sj_period") {
      config.sj_period = parse_size(value, key);
    } else if (key == "boundary") {
      if (value == "wrap") {
        config.boundary = BoundaryMode::kWrap;
      } else if (value == "saturate") {
        config.boundary = BoundaryMode::kSaturate;
      } else {
        throw PreconditionError("config: boundary must be wrap|saturate");
      }
    } else {
      throw PreconditionError("config: unknown key '" + key + "' on line " +
                              std::to_string(line_number));
    }
  }
  config.validate();
  return config;
}

CdrConfig config_from_string(const std::string& text) {
  std::istringstream in(text);
  return config_from_text(in);
}

CdrConfig config_from_file(const std::string& path) {
  std::ifstream in(path);
  STOCDR_REQUIRE(in.good(), "config: cannot open '" + path + "'");
  return config_from_text(in);
}

}  // namespace stocdr::cdr
