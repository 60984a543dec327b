#pragma once

// htgdb wire protocol: length-prefixed binary frames over TCP.
//
//   frame   := length:u32le  type:u8  payload[length]
//   payload := message-specific (varints and length-prefixed strings,
//              the same codecs ROW compression uses)
//
// One request/response conversation per statement:
//
//   client                         server
//   ------                        -------
//   Hello{version, client}    ->
//                             <-  HelloAck{version, server, session_id}
//   Query{sql, token}         ->
//                             <-  ResultHeader{schema}        (row results)
//                             <-  ResultBatch{rows}*          (256 rows each,
//                                                              the last fewer)
//                             <-  ResultDone{rows_affected, message}
//                         or <-  Error{status_code, message}  (statement
//                                 failed; session stays usable; may
//                                 follow ResultBatch frames when the
//                                 failure came mid-stream)
//   Prepare{sql}              ->
//                             <-  PrepareAck{statement_id}
//   Execute{statement_id, token} -> (same result framing as Query)
//   CloseStmt{statement_id}   ->
//                             <-  ResultDone{0, "closed"}
//   Begin{}                   ->
//                             <-  ResultDone{0, "begin"}   (or Error)
//   Commit{}                  ->
//                             <-  ResultDone{0, "commit"}  (or Error)
//   Abort{}                   ->
//                             <-  ResultDone{0, "abort"}   (or Error)
//   Goodbye{}                 ->   (client hangs up; no reply)
//
// Begin opens a multi-statement snapshot-isolation transaction (see
// docs/CONCURRENCY.md): every Query/Execute until Commit/Abort runs
// against the Begin-time snapshot, write locks accumulate until the
// transaction finishes, and a failed statement auto-aborts the whole
// transaction (the Error frame says so). Begin/Commit/Abort payloads are
// empty. A client that disconnects mid-transaction gets an implicit
// Abort.
//
// During graceful shutdown the server finishes the statement in flight,
// sends Goodbye{} to every connection, and closes. Typed errors cross the
// wire as the numeric StatusCode plus message, so a client-side Status
// carries the same code the engine produced (lock timeouts stay kAborted,
// budget failures stay kResourceExhausted, ...).

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "server/net_socket.h"
#include "types/row_batch.h"
#include "types/schema.h"
#include "types/value.h"

namespace htg::server {

inline constexpr uint32_t kProtocolVersion = 2;
// A frame larger than this is a protocol error, not an allocation request:
// the limit is what keeps a corrupt length prefix from looking like a
// 4 GiB message.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;
// Rows per ResultBatch frame when streaming a result set.
inline constexpr size_t kResultBatchRows = 256;

enum class MsgType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kQuery = 3,
  kPrepare = 4,
  kPrepareAck = 5,
  kExecute = 6,
  kCloseStmt = 7,
  kResultHeader = 8,
  kResultBatch = 9,
  kResultDone = 10,
  kError = 11,
  kGoodbye = 12,
  kBegin = 13,
  kCommit = 14,
  kAbort = 15,
};

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

// Blocking frame I/O over the socket seam.
Status WriteFrame(Socket* socket, MsgType type, std::string_view payload);
Status ReadFrame(Socket* socket, Frame* frame);

// --------------------------------------------------- payload codecs ---
// Encoders append to `out`; decoders consume a cursor range and return
// kCorruption on truncated or malformed payloads.

struct HelloMsg {
  uint32_t version = kProtocolVersion;
  std::string peer_name;
};
struct HelloAckMsg {
  uint32_t version = kProtocolVersion;
  std::string server_name;
  uint64_t session_id = 0;
};
struct QueryMsg {
  std::string sql;
  // Statement dedupe token (see SqlEngine::StatementOptions); the session
  // layer reuses it across its transient-error retries.
  std::string token;
};
struct ExecuteMsg {
  uint64_t statement_id = 0;
  std::string token;
};
struct ResultDoneMsg {
  uint64_t rows_affected = 0;
  std::string message;
};
struct ErrorMsg {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

void EncodeHello(const HelloMsg& msg, std::string* out);
Status DecodeHello(std::string_view payload, HelloMsg* msg);
void EncodeHelloAck(const HelloAckMsg& msg, std::string* out);
Status DecodeHelloAck(std::string_view payload, HelloAckMsg* msg);
void EncodeQuery(const QueryMsg& msg, std::string* out);
Status DecodeQuery(std::string_view payload, QueryMsg* msg);
void EncodeExecute(const ExecuteMsg& msg, std::string* out);
Status DecodeExecute(std::string_view payload, ExecuteMsg* msg);
void EncodeResultDone(const ResultDoneMsg& msg, std::string* out);
Status DecodeResultDone(std::string_view payload, ResultDoneMsg* msg);
void EncodeError(const Status& status, std::string* out);
Status DecodeError(std::string_view payload, ErrorMsg* msg);
void EncodeU64(uint64_t v, std::string* out);
Status DecodeU64(std::string_view payload, uint64_t* v);

// Result schema: column names + types, enough for client-side rendering.
void EncodeSchema(const Schema& schema, std::string* out);
Status DecodeSchema(std::string_view payload, Schema* schema);

// Self-describing rows (tag per value), independent of the schema so
// expression results whose runtime kind differs from the declared column
// type survive the trip. A ResultBatch payload is a row count followed by
// that many rows: EncodeRows appends the live rows [begin, end) of
// `batch`, and EncodeRowBatch prefixes `num_rows` rows encoded that way
// with their count.
void EncodeRows(const RowBatch& batch, size_t begin, size_t end,
                std::string* out);
void EncodeRowBatch(size_t num_rows, std::string_view rows, std::string* out);
Status DecodeRowBatch(std::string_view payload, std::vector<Row>* rows);

}  // namespace htg::server
