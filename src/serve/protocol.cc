#include "serve/protocol.h"

#include <algorithm>
#include <cstring>

#include "core/string_util.h"
#include "io/bytes.h"

namespace dmt::serve {

using core::Result;
using core::Status;
using io::ByteReader;
using io::ByteWriter;

namespace {

/// Writes the frame header and the finished body into one exactly sized
/// frame.
std::vector<std::byte> FinishFrame(uint32_t magic, const ByteWriter& body) {
  const std::span<const std::byte> payload = body.bytes();
  const auto length = static_cast<uint32_t>(payload.size());
  std::vector<std::byte> frame(sizeof(magic) + sizeof(length) +
                               payload.size());
  std::memcpy(frame.data(), &magic, sizeof(magic));
  std::memcpy(frame.data() + sizeof(magic), &length, sizeof(length));
  std::ranges::copy(payload, frame.begin() + sizeof(magic) + sizeof(length));
  return frame;
}

Status BadCount(const char* what, uint64_t got, uint64_t cap) {
  return Status::Corruption(core::StrFormat(
      "request: %s %llu out of range [1, %llu]", what,
      static_cast<unsigned long long>(got),
      static_cast<unsigned long long>(cap)));
}

}  // namespace

std::vector<std::byte> EncodeRequestFrame(const Request& request) {
  ByteWriter body;
  body.PutU64(request.id);
  body.PutU8(static_cast<uint8_t>(request.type));
  switch (request.type) {
    case RequestType::kClassify:
      body.PutU8(static_cast<uint8_t>(request.model));
      body.PutU32(request.count);
      body.PutU32(request.dim);
      body.PutArray(std::span<const double>(request.values));
      break;
    case RequestType::kAssignCluster:
      body.PutU32(request.count);
      body.PutU32(request.dim);
      body.PutArray(std::span<const double>(request.values));
      break;
    case RequestType::kRecommend:
      body.PutU32(request.top_k);
      body.PutU32(request.count);
      for (const auto& basket : request.baskets) {
        body.PutArray(std::span<const uint32_t>(basket));
      }
      break;
    case RequestType::kStats:
      break;
  }
  return FinishFrame(kRequestMagic, body);
}

void EncodeRuleHits(const std::vector<RuleHit>& hits,
                    std::vector<std::byte>* out) {
  ByteWriter chunk;
  chunk.PutU32(static_cast<uint32_t>(hits.size()));
  for (const RuleHit& hit : hits) {
    chunk.PutU32(hit.rule_index);
    chunk.PutF64(hit.confidence);
    chunk.PutF64(hit.lift);
    chunk.PutArray(std::span<const uint32_t>(hit.consequent));
  }
  out->insert(out->end(), chunk.bytes().begin(), chunk.bytes().end());
}

std::vector<std::byte> EncodeResponseFrame(const Response& response) {
  ByteWriter body;
  body.PutU64(response.id);
  body.PutU8(static_cast<uint8_t>(response.type));
  body.PutU8(response.status);
  if (response.status != 0) {
    body.PutString(response.error);
    return FinishFrame(kResponseMagic, body);
  }
  switch (response.type) {
    case RequestType::kClassify:
      body.PutArray(std::span<const uint32_t>(response.labels));
      break;
    case RequestType::kAssignCluster:
      body.PutArray(std::span<const uint32_t>(response.clusters));
      body.PutArray(std::span<const double>(response.cluster_dist_sq));
      break;
    case RequestType::kRecommend: {
      body.PutU32(static_cast<uint32_t>(response.recommendations.size()));
      std::vector<std::byte> chunks;
      for (const auto& hits : response.recommendations) {
        EncodeRuleHits(hits, &chunks);
      }
      body.PutRaw(chunks.data(), chunks.size());
      break;
    }
    case RequestType::kStats:
      body.PutString(response.stats_json);
      break;
  }
  return FinishFrame(kResponseMagic, body);
}

Result<uint32_t> CheckFrameHeader(std::span<const std::byte> header,
                                  uint32_t expected_magic) {
  if (header.size() < kFrameHeaderBytes) {
    return Status::Corruption(core::StrFormat(
        "frame: %zu byte(s) is shorter than the %zu-byte header",
        header.size(), kFrameHeaderBytes));
  }
  uint32_t magic = 0;
  uint32_t length = 0;
  std::memcpy(&magic, header.data(), sizeof(magic));
  std::memcpy(&length, header.data() + sizeof(magic), sizeof(length));
  if (magic != expected_magic) {
    return Status::Corruption(core::StrFormat(
        "frame: bad magic 0x%08x (expected 0x%08x)", magic, expected_magic));
  }
  if (length > kMaxFrameBody) {
    return Status::Corruption(core::StrFormat(
        "frame: declared body length %u exceeds the %u-byte cap", length,
        kMaxFrameBody));
  }
  return length;
}

namespace {

/// Shared prologue of both frame decoders.
Result<std::span<const std::byte>> FrameBody(
    std::span<const std::byte> frame, uint32_t expected_magic) {
  DMT_ASSIGN_OR_RETURN(uint32_t length,
                       CheckFrameHeader(frame, expected_magic));
  std::span<const std::byte> body = frame.subspan(kFrameHeaderBytes);
  if (body.size() != length) {
    return Status::Corruption(core::StrFormat(
        "frame: header declares %u body byte(s) but %zu are present",
        length, body.size()));
  }
  return body;
}

}  // namespace

Result<Request> DecodeRequestFrame(std::span<const std::byte> frame) {
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> body,
                       FrameBody(frame, kRequestMagic));
  ByteReader reader(body, "request");
  Request request;
  DMT_ASSIGN_OR_RETURN(request.id, reader.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint8_t type, reader.ReadU8());
  switch (type) {
    case static_cast<uint8_t>(RequestType::kClassify): {
      request.type = RequestType::kClassify;
      DMT_ASSIGN_OR_RETURN(uint8_t model, reader.ReadU8());
      if (model > static_cast<uint8_t>(ClassifyModel::kNaiveBayes)) {
        return Status::Corruption(
            core::StrFormat("request: unknown classify model %u", model));
      }
      request.model = static_cast<ClassifyModel>(model);
      DMT_ASSIGN_OR_RETURN(request.count, reader.ReadU32());
      DMT_ASSIGN_OR_RETURN(request.dim, reader.ReadU32());
      if (request.count == 0 || request.count > kMaxRecordsPerRequest) {
        return BadCount("record count", request.count,
                        kMaxRecordsPerRequest);
      }
      if (request.dim == 0 || request.dim > kMaxRecordDim) {
        return BadCount("record dim", request.dim, kMaxRecordDim);
      }
      const uint64_t expected =
          static_cast<uint64_t>(request.count) * request.dim;
      DMT_ASSIGN_OR_RETURN(request.values,
                           reader.ReadArray<double>(expected));
      if (request.values.size() != expected) {
        return Status::Corruption(core::StrFormat(
            "request: %zu value(s) for %u record(s) of dim %u",
            request.values.size(), request.count, request.dim));
      }
      break;
    }
    case static_cast<uint8_t>(RequestType::kAssignCluster): {
      request.type = RequestType::kAssignCluster;
      DMT_ASSIGN_OR_RETURN(request.count, reader.ReadU32());
      DMT_ASSIGN_OR_RETURN(request.dim, reader.ReadU32());
      if (request.count == 0 || request.count > kMaxRecordsPerRequest) {
        return BadCount("point count", request.count,
                        kMaxRecordsPerRequest);
      }
      if (request.dim == 0 || request.dim > kMaxRecordDim) {
        return BadCount("point dim", request.dim, kMaxRecordDim);
      }
      const uint64_t expected =
          static_cast<uint64_t>(request.count) * request.dim;
      DMT_ASSIGN_OR_RETURN(request.values,
                           reader.ReadArray<double>(expected));
      if (request.values.size() != expected) {
        return Status::Corruption(core::StrFormat(
            "request: %zu value(s) for %u point(s) of dim %u",
            request.values.size(), request.count, request.dim));
      }
      break;
    }
    case static_cast<uint8_t>(RequestType::kRecommend): {
      request.type = RequestType::kRecommend;
      DMT_ASSIGN_OR_RETURN(request.top_k, reader.ReadU32());
      DMT_ASSIGN_OR_RETURN(request.count, reader.ReadU32());
      if (request.top_k == 0 || request.top_k > kMaxTopK) {
        return BadCount("top_k", request.top_k, kMaxTopK);
      }
      if (request.count == 0 || request.count > kMaxRecordsPerRequest) {
        return BadCount("basket count", request.count,
                        kMaxRecordsPerRequest);
      }
      request.baskets.reserve(request.count);
      for (uint32_t b = 0; b < request.count; ++b) {
        DMT_ASSIGN_OR_RETURN(std::vector<uint32_t> basket,
                             reader.ReadArray<uint32_t>(kMaxBasketItems));
        request.baskets.push_back(std::move(basket));
      }
      break;
    }
    case static_cast<uint8_t>(RequestType::kStats):
      request.type = RequestType::kStats;
      break;
    default:
      return Status::Corruption(
          core::StrFormat("request: unknown type %u", type));
  }
  DMT_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

Result<Response> DecodeResponseFrame(std::span<const std::byte> frame) {
  DMT_ASSIGN_OR_RETURN(std::span<const std::byte> body,
                       FrameBody(frame, kResponseMagic));
  ByteReader reader(body, "response");
  Response response;
  DMT_ASSIGN_OR_RETURN(response.id, reader.ReadU64());
  DMT_ASSIGN_OR_RETURN(uint8_t type, reader.ReadU8());
  DMT_ASSIGN_OR_RETURN(response.status, reader.ReadU8());
  if (response.status != 0) {
    // Error responses may carry any type byte (the failure can predate
    // type parsing); only the message matters.
    response.type = static_cast<RequestType>(type);
    DMT_ASSIGN_OR_RETURN(response.error, reader.ReadString());
    DMT_RETURN_NOT_OK(reader.ExpectEnd());
    return response;
  }
  switch (type) {
    case static_cast<uint8_t>(RequestType::kClassify): {
      response.type = RequestType::kClassify;
      DMT_ASSIGN_OR_RETURN(
          response.labels,
          reader.ReadArray<uint32_t>(kMaxRecordsPerRequest));
      break;
    }
    case static_cast<uint8_t>(RequestType::kAssignCluster): {
      response.type = RequestType::kAssignCluster;
      DMT_ASSIGN_OR_RETURN(
          response.clusters,
          reader.ReadArray<uint32_t>(kMaxRecordsPerRequest));
      DMT_ASSIGN_OR_RETURN(
          response.cluster_dist_sq,
          reader.ReadArray<double>(kMaxRecordsPerRequest));
      if (response.clusters.size() != response.cluster_dist_sq.size()) {
        return Status::Corruption(
            "response: cluster/distance arrays disagree in length");
      }
      break;
    }
    case static_cast<uint8_t>(RequestType::kRecommend): {
      response.type = RequestType::kRecommend;
      DMT_ASSIGN_OR_RETURN(uint32_t count, reader.ReadU32());
      if (count > kMaxRecordsPerRequest) {
        return BadCount("basket count", count, kMaxRecordsPerRequest);
      }
      response.recommendations.resize(count);
      for (uint32_t b = 0; b < count; ++b) {
        DMT_ASSIGN_OR_RETURN(uint32_t hits, reader.ReadU32());
        if (hits > kMaxTopK) return BadCount("hit count", hits, kMaxTopK);
        response.recommendations[b].resize(hits);
        for (uint32_t h = 0; h < hits; ++h) {
          RuleHit& hit = response.recommendations[b][h];
          DMT_ASSIGN_OR_RETURN(hit.rule_index, reader.ReadU32());
          DMT_ASSIGN_OR_RETURN(hit.confidence, reader.ReadF64());
          DMT_ASSIGN_OR_RETURN(hit.lift, reader.ReadF64());
          DMT_ASSIGN_OR_RETURN(
              hit.consequent,
              reader.ReadArray<uint32_t>(kMaxBasketItems));
        }
      }
      break;
    }
    case static_cast<uint8_t>(RequestType::kStats): {
      response.type = RequestType::kStats;
      DMT_ASSIGN_OR_RETURN(response.stats_json, reader.ReadString());
      break;
    }
    default:
      return Status::Corruption(
          core::StrFormat("response: unknown type %u", type));
  }
  DMT_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

Response MakeErrorResponse(uint64_t id, const core::Status& status) {
  Response response;
  response.id = id;
  response.status = static_cast<uint8_t>(status.code());
  response.error = status.ToString();
  return response;
}

}  // namespace dmt::serve
