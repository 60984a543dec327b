#include "server/wire.h"

#include <cstring>

#include "common/string_util.h"
#include "common/varint.h"

namespace htg::server {

namespace {

// Little-endian u32, the frame length prefix.
void PutU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

Status Truncated(const char* what) {
  return Status::Corruption(StringPrintf("wire: truncated %s payload", what));
}

// Value tags: 0 = NULL, otherwise DataType + 1.
constexpr uint8_t kNullTag = 0;

void EncodeValue(const Value& value, std::string* out) {
  if (value.is_null()) {
    out->push_back(static_cast<char>(kNullTag));
    return;
  }
  out->push_back(static_cast<char>(static_cast<uint8_t>(value.type()) + 1));
  switch (value.type()) {
    case DataType::kBool:
    case DataType::kInt32:
    case DataType::kInt64:
      PutVarintSigned64(out, value.AsInt64());
      break;
    case DataType::kDouble: {
      double d = value.AsDouble();
      char buf[sizeof(double)];
      memcpy(buf, &d, sizeof(double));
      out->append(buf, sizeof(double));
      break;
    }
    case DataType::kString:
    case DataType::kBlob:
    case DataType::kGuid:
      PutLengthPrefixed(out, value.AsString());
      break;
  }
}

const char* DecodeValue(const char* p, const char* limit, Value* value) {
  if (p >= limit) return nullptr;
  const uint8_t tag = static_cast<uint8_t>(*p++);
  if (tag == kNullTag) {
    *value = Value::Null();
    return p;
  }
  if (tag > static_cast<uint8_t>(DataType::kGuid) + 1) return nullptr;
  const DataType type = static_cast<DataType>(tag - 1);
  switch (type) {
    case DataType::kBool:
    case DataType::kInt32:
    case DataType::kInt64: {
      int64_t v = 0;
      p = GetVarintSigned64(p, limit, &v);
      if (p == nullptr) return nullptr;
      *value = type == DataType::kBool
                   ? Value::Bool(v != 0)
                   : (type == DataType::kInt32
                          ? Value::Int32(static_cast<int32_t>(v))
                          : Value::Int64(v));
      return p;
    }
    case DataType::kDouble: {
      if (limit - p < static_cast<ptrdiff_t>(sizeof(double))) return nullptr;
      double d;
      memcpy(&d, p, sizeof(double));
      *value = Value::Double(d);
      return p + sizeof(double);
    }
    case DataType::kString:
    case DataType::kBlob:
    case DataType::kGuid: {
      std::string_view s;
      p = GetLengthPrefixed(p, limit, &s);
      if (p == nullptr) return nullptr;
      *value = type == DataType::kString
                   ? Value::String(std::string(s))
                   : (type == DataType::kBlob ? Value::Blob(std::string(s))
                                              : Value::Guid(std::string(s)));
      return p;
    }
  }
  return nullptr;
}

}  // namespace

// ----------------------------------------------------------- framing ---

Status WriteFrame(Socket* socket, MsgType type, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        StringPrintf("wire: frame of %zu bytes exceeds the %u byte cap",
                     payload.size(), kMaxFrameBytes));
  }
  std::string frame;
  frame.reserve(5 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.push_back(static_cast<char>(type));
  frame.append(payload);
  return socket->WriteAll(frame);
}

Status ReadFrame(Socket* socket, Frame* frame) {
  char header[5];
  HTG_RETURN_IF_ERROR(socket->ReadFull(header, sizeof(header)));
  const uint32_t length = GetU32(header);
  if (length > kMaxFrameBytes) {
    return Status::Corruption(
        StringPrintf("wire: frame length %u exceeds the %u byte cap", length,
                     kMaxFrameBytes));
  }
  frame->type = static_cast<MsgType>(header[4]);
  frame->payload.resize(length);
  if (length > 0) {
    HTG_RETURN_IF_ERROR(socket->ReadFull(frame->payload.data(), length));
  }
  return Status::OK();
}

// ---------------------------------------------------- message codecs ---

void EncodeHello(const HelloMsg& msg, std::string* out) {
  PutVarint64(out, msg.version);
  PutLengthPrefixed(out, msg.peer_name);
}

Status DecodeHello(std::string_view payload, HelloMsg* msg) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t version = 0;
  std::string_view name;
  p = GetVarint64(p, limit, &version);
  if (p != nullptr) p = GetLengthPrefixed(p, limit, &name);
  if (p == nullptr) return Truncated("Hello");
  msg->version = static_cast<uint32_t>(version);
  msg->peer_name = std::string(name);
  return Status::OK();
}

void EncodeHelloAck(const HelloAckMsg& msg, std::string* out) {
  PutVarint64(out, msg.version);
  PutLengthPrefixed(out, msg.server_name);
  PutVarint64(out, msg.session_id);
}

Status DecodeHelloAck(std::string_view payload, HelloAckMsg* msg) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t version = 0;
  uint64_t session = 0;
  std::string_view name;
  p = GetVarint64(p, limit, &version);
  if (p != nullptr) p = GetLengthPrefixed(p, limit, &name);
  if (p != nullptr) p = GetVarint64(p, limit, &session);
  if (p == nullptr) return Truncated("HelloAck");
  msg->version = static_cast<uint32_t>(version);
  msg->server_name = std::string(name);
  msg->session_id = session;
  return Status::OK();
}

void EncodeQuery(const QueryMsg& msg, std::string* out) {
  PutLengthPrefixed(out, msg.sql);
  PutLengthPrefixed(out, msg.token);
}

Status DecodeQuery(std::string_view payload, QueryMsg* msg) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  std::string_view sql;
  std::string_view token;
  p = GetLengthPrefixed(p, limit, &sql);
  if (p != nullptr) p = GetLengthPrefixed(p, limit, &token);
  if (p == nullptr) return Truncated("Query");
  msg->sql = std::string(sql);
  msg->token = std::string(token);
  return Status::OK();
}

void EncodeExecute(const ExecuteMsg& msg, std::string* out) {
  PutVarint64(out, msg.statement_id);
  PutLengthPrefixed(out, msg.token);
}

Status DecodeExecute(std::string_view payload, ExecuteMsg* msg) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t id = 0;
  std::string_view token;
  p = GetVarint64(p, limit, &id);
  if (p != nullptr) p = GetLengthPrefixed(p, limit, &token);
  if (p == nullptr) return Truncated("Execute");
  msg->statement_id = id;
  msg->token = std::string(token);
  return Status::OK();
}

void EncodeResultDone(const ResultDoneMsg& msg, std::string* out) {
  PutVarint64(out, msg.rows_affected);
  PutLengthPrefixed(out, msg.message);
}

Status DecodeResultDone(std::string_view payload, ResultDoneMsg* msg) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t affected = 0;
  std::string_view message;
  p = GetVarint64(p, limit, &affected);
  if (p != nullptr) p = GetLengthPrefixed(p, limit, &message);
  if (p == nullptr) return Truncated("ResultDone");
  msg->rows_affected = affected;
  msg->message = std::string(message);
  return Status::OK();
}

void EncodeError(const Status& status, std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(status.code()));
  PutLengthPrefixed(out, status.message());
}

Status DecodeError(std::string_view payload, ErrorMsg* msg) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t code = 0;
  std::string_view message;
  p = GetVarint64(p, limit, &code);
  if (p != nullptr) p = GetLengthPrefixed(p, limit, &message);
  if (p == nullptr) return Truncated("Error");
  if (code > static_cast<uint64_t>(StatusCode::kExecError)) {
    return Status::Corruption(
        StringPrintf("wire: unknown status code %llu",
                     static_cast<unsigned long long>(code)));
  }
  msg->code = static_cast<StatusCode>(code);
  msg->message = std::string(message);
  return Status::OK();
}

void EncodeU64(uint64_t v, std::string* out) { PutVarint64(out, v); }

Status DecodeU64(std::string_view payload, uint64_t* v) {
  const char* p =
      GetVarint64(payload.data(), payload.data() + payload.size(), v);
  if (p == nullptr) return Truncated("u64");
  return Status::OK();
}

void EncodeSchema(const Schema& schema, std::string* out) {
  PutVarint64(out, static_cast<uint64_t>(schema.num_columns()));
  for (const Column& column : schema.columns()) {
    PutLengthPrefixed(out, column.name);
    out->push_back(static_cast<char>(static_cast<uint8_t>(column.type)));
    out->push_back(column.nullable ? 1 : 0);
  }
}

Status DecodeSchema(std::string_view payload, Schema* schema) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t ncols = 0;
  p = GetVarint64(p, limit, &ncols);
  if (p == nullptr) return Truncated("ResultHeader");
  Schema out;
  for (uint64_t i = 0; i < ncols; ++i) {
    std::string_view name;
    p = GetLengthPrefixed(p, limit, &name);
    if (p == nullptr || limit - p < 2) return Truncated("ResultHeader");
    Column column;
    column.name = std::string(name);
    const uint8_t type = static_cast<uint8_t>(*p++);
    if (type > static_cast<uint8_t>(DataType::kGuid)) {
      return Status::Corruption(
          StringPrintf("wire: unknown column type %u", type));
    }
    column.type = static_cast<DataType>(type);
    column.nullable = *p++ != 0;
    out.AddColumn(std::move(column));
  }
  *schema = std::move(out);
  return Status::OK();
}

void EncodeRows(const RowBatch& batch, size_t begin, size_t end,
                std::string* out) {
  const size_t ncols = batch.num_columns();
  for (size_t i = begin; i < end; ++i) {
    const size_t r = batch.ActiveIndex(i);
    PutVarint64(out, ncols);
    for (size_t c = 0; c < ncols; ++c) EncodeValue(batch.column(c)[r], out);
  }
}

void EncodeRowBatch(size_t num_rows, std::string_view rows, std::string* out) {
  PutVarint64(out, num_rows);
  out->append(rows);
}

Status DecodeRowBatch(std::string_view payload, std::vector<Row>* rows) {
  const char* p = payload.data();
  const char* limit = p + payload.size();
  uint64_t nrows = 0;
  p = GetVarint64(p, limit, &nrows);
  if (p == nullptr) return Truncated("ResultBatch");
  for (uint64_t r = 0; r < nrows; ++r) {
    uint64_t nvals = 0;
    p = GetVarint64(p, limit, &nvals);
    if (p == nullptr) return Truncated("ResultBatch");
    Row row;
    row.reserve(nvals);
    for (uint64_t i = 0; i < nvals; ++i) {
      Value value;
      p = DecodeValue(p, limit, &value);
      if (p == nullptr) return Truncated("ResultBatch");
      row.push_back(std::move(value));
    }
    rows->push_back(std::move(row));
  }
  return Status::OK();
}

}  // namespace htg::server
