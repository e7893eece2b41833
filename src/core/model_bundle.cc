#include "core/model_bundle.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/strings.h"
#include "tensor/serialize.h"

namespace rll::core {

namespace {

constexpr char kMagic[] = "rll-bundle";
constexpr char kVersion[] = "v2";

std::string HeaderLine(const RllModelConfig& config) {
  std::vector<std::string> dims;
  dims.push_back(std::to_string(config.input_dim));
  for (size_t d : config.hidden_dims) dims.push_back(std::to_string(d));
  return StrFormat("%s %s dims=%s hidden=%s output=%s layer_norm=%d "
                   "embed_dim=%zu",
                   kMagic, kVersion, Join(dims, ",").c_str(),
                   nn::ActivationName(config.hidden_activation),
                   nn::ActivationName(config.output_activation),
                   config.layer_norm ? 1 : 0, config.hidden_dims.back());
}

/// Parses the v2 header into a config. The header is key=value tokens
/// after "rll-bundle v2"; unknown keys are rejected so a future v3 writer
/// cannot be half-read by this loader.
Result<RllModelConfig> ParseHeader(const std::string& line) {
  std::istringstream in(line);
  std::string magic, version;
  in >> magic >> version;
  if (magic != kMagic) {
    return Status::InvalidArgument("not a bundle header: " + line);
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported bundle version: " + version);
  }

  RllModelConfig config;
  bool have_dims = false, have_hidden = false, have_output = false;
  size_t declared_embed_dim = 0;
  bool have_embed_dim = false;
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("malformed bundle header token: " +
                                     token);
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "dims") {
      std::vector<size_t> dims;
      for (const std::string& part : Split(value, ',')) {
        int64_t d = 0;
        if (!ParseInt(part, &d) || d <= 0) {
          return Status::InvalidArgument("bad dims in bundle header: " +
                                         value);
        }
        dims.push_back(static_cast<size_t>(d));
      }
      if (dims.size() < 2) {
        return Status::InvalidArgument(
            "bundle header needs >= 2 dims (input + embedding)");
      }
      config.input_dim = dims[0];
      config.hidden_dims.assign(dims.begin() + 1, dims.end());
      have_dims = true;
    } else if (key == "hidden") {
      RLL_ASSIGN_OR_RETURN(config.hidden_activation,
                           nn::ParseActivation(value));
      have_hidden = true;
    } else if (key == "output") {
      RLL_ASSIGN_OR_RETURN(config.output_activation,
                           nn::ParseActivation(value));
      have_output = true;
    } else if (key == "layer_norm") {
      if (value != "0" && value != "1") {
        return Status::InvalidArgument("bad layer_norm in bundle header: " +
                                       value);
      }
      config.layer_norm = value == "1";
    } else if (key == "embed_dim") {
      int64_t d = 0;
      if (!ParseInt(value, &d) || d <= 0) {
        return Status::InvalidArgument("bad embed_dim in bundle header: " +
                                       value);
      }
      declared_embed_dim = static_cast<size_t>(d);
      have_embed_dim = true;
    } else {
      return Status::InvalidArgument("unknown bundle header key: " + key);
    }
  }
  if (!have_dims || !have_hidden || !have_output) {
    return Status::InvalidArgument(
        "bundle header must declare dims, hidden, and output");
  }
  if (have_embed_dim && declared_embed_dim != config.hidden_dims.back()) {
    return Status::InvalidArgument(
        "bundle header embed_dim disagrees with dims");
  }
  return config;
}

/// The encoder is sized from the header, so a corrupt header could ask for
/// an allocation the process cannot survive. This rejects any header whose
/// standardizer moments and weight matrices alone need more numbers than
/// the rest of the file could hold (each takes at least two bytes: a digit
/// and a separator).
Status CheckHeaderFitsFile(const RllModelConfig& config,
                           uint64_t bytes_left) {
  const uint64_t budget = bytes_left / 2;
  uint64_t needed = 2 * static_cast<uint64_t>(config.input_dim);
  uint64_t fan_in = config.input_dim;
  for (size_t width : config.hidden_dims) {
    // Widths are >= 1 (ParseHeader), so fan_in never divides by zero and
    // the product below cannot overflow once it fits the budget.
    if (needed > budget || width > (budget - needed) / fan_in) {
      return Status::InvalidArgument(
          "bundle header declares more parameters than the file holds");
    }
    needed += fan_in * width;
    fan_in = width;
  }
  return Status::OK();
}

/// ReadMatrix with the bundle section named in any error.
Status ReadSection(std::istream* in, const std::string& section,
                   Matrix* out) {
  Status status = ReadMatrix(in, out);
  if (status.ok()) return status;
  return Status(status.code(), "bundle " + section + ": " + status.message());
}

// Writes `bytes` to a new file beside `path` and renames it over `path`,
// so a reader (a server watching the bundle) opens either the old file or
// the complete new one, never a prefix. On any error the temporary file is
// removed and `path` is left as it was.
Status PublishFile(const std::string& path, const std::string& bytes) {
  static std::atomic<uint64_t> sequence{0};
  std::string tmp;
  int fd = -1;
  for (int attempt = 0; fd < 0 && attempt < 100; ++attempt) {
    tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0 && errno != EEXIST) break;
  }
  if (fd < 0) {
    return Status::IOError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  int error = 0;
  for (size_t written = 0; written < bytes.size();) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error = n < 0 ? errno : EIO;
      break;
    }
    written += static_cast<size_t>(n);
  }
  // close() reports a failed deferred write (a full disk, say) too.
  if (::close(fd) != 0 && error == 0) error = errno;
  if (error != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("write failed: " + tmp + ": " +
                           std::strerror(error));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int rename_errno = errno;
    ::unlink(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path + ": " +
                           std::strerror(rename_errno));
  }
  return Status::OK();
}

}  // namespace

Result<ModelBundle> ModelBundle::Create(
    const data::Standardizer& standardizer, const RllModel& model,
    Rng* rng) {
  if (!standardizer.fitted()) {
    return Status::FailedPrecondition("standardizer is not fitted");
  }
  if (standardizer.mean().cols() != model.input_dim()) {
    return Status::InvalidArgument(
        "standardizer dimensionality does not match the model input");
  }
  ModelBundle bundle;
  bundle.standardizer_ = standardizer;
  // Copy the model by cloning its architecture and parameter values.
  bundle.model_ = std::make_shared<RllModel>(model.config(), rng);
  const auto src = model.Parameters();
  const auto dst = bundle.model_->Parameters();
  for (size_t i = 0; i < src.size(); ++i) dst[i]->value = src[i]->value;
  return bundle;
}

Status ModelBundle::Save(const std::string& path) const {
  std::ostringstream out;
  out << HeaderLine(model_->config()) << "\n";
  RLL_RETURN_IF_ERROR(WriteMatrix(&out, standardizer_.mean()));
  RLL_RETURN_IF_ERROR(WriteMatrix(&out, standardizer_.stddev()));
  for (const ag::Var& p : model_->Parameters()) {
    RLL_RETURN_IF_ERROR(WriteMatrix(&out, p->value));
  }
  return PublishFile(path, out.str());
}

Result<ModelBundle> ModelBundle::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open: " + path);
  std::string header;
  if (!std::getline(in, header)) {
    return Status::InvalidArgument("empty bundle file: " + path);
  }
  RLL_ASSIGN_OR_RETURN(RllModelConfig config, ParseHeader(header));
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff bytes_left = in.tellg() - body;
  in.seekg(body);
  if (!in || bytes_left < 0) {
    return Status::IOError("cannot measure bundle file: " + path);
  }
  RLL_RETURN_IF_ERROR(
      CheckHeaderFitsFile(config, static_cast<uint64_t>(bytes_left)));

  // Every matrix is read into storage shaped by the header; ReadMatrix
  // rejects a differing matrix header before reading its elements.
  Matrix mean(1, config.input_dim);
  Matrix stddev(1, config.input_dim);
  RLL_RETURN_IF_ERROR(ReadSection(&in, "mean", &mean));
  RLL_RETURN_IF_ERROR(ReadSection(&in, "stddev", &stddev));
  ModelBundle bundle;
  Rng init_rng(1);  // Every parameter value is overwritten below.
  bundle.model_ = std::make_shared<RllModel>(config, &init_rng);
  const std::vector<ag::Var> params = bundle.model_->Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    RLL_RETURN_IF_ERROR(ReadSection(
        &in, StrFormat("parameter %zu", i), &params[i]->value));
  }
  in >> std::ws;
  if (!in.eof()) {
    return Status::InvalidArgument(
        "bundle has data after its last parameter: " + path);
  }
  bundle.standardizer_ =
      data::Standardizer::FromMoments(std::move(mean), std::move(stddev));
  return bundle;
}

Result<Matrix> ModelBundle::Embed(const Matrix& raw_features) const {
  if (raw_features.cols() != input_dim()) {
    return Status::InvalidArgument("feature dimensionality mismatch");
  }
  return model_->Embed(standardizer_.Transform(raw_features));
}

}  // namespace rll::core
